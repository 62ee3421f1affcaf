"""Fixture: process-salted hashes feeding seeds on the deterministic hot path."""


def seed_for(key: str) -> int:
    return hash(key) & 0xFFFF


def seed_from(parts: tuple) -> int:
    return parts.__str__().__hash__() & 0xFFFF
