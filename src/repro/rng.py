"""Deterministic random-number utilities.

Everything in the library that makes random choices accepts an explicit
``numpy.random.Generator``.  This module provides helpers to create
generators from seeds and to derive *stable* seeds from strings, so that
the device simulator can attach a reproducible pseudo-random residual to
every (device, workload, schedule) triple.
"""

from __future__ import annotations

import hashlib

import numpy as np


def make_rng(seed: int | None = 0) -> np.random.Generator:
    """Create a numpy Generator from an integer seed (None = nondeterministic)."""
    return np.random.default_rng(seed)


def stable_hash(*parts: object, bits: int = 64) -> int:
    """Hash arbitrary (stringifiable) parts to a stable non-negative integer.

    Unlike Python's builtin ``hash``, the result is identical across
    processes and interpreter runs, which the ground-truth simulator
    relies on for reproducible device noise.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
    return int.from_bytes(digest, "little") % (1 << bits)


def rng_for(*parts: object) -> np.random.Generator:
    """Create a Generator seeded stably from the given parts."""
    return np.random.default_rng(stable_hash(*parts))
