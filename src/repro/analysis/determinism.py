"""Determinism lint for the draft/verify hot path.

Pruner's whole evaluation story rests on reproducibility: the same job
spec must draft, gate, and measure the same candidates on every run (the
worker pool even promises order-independent multi-worker results).  The
hot-path packages therefore use injectable clocks (``clock=`` params
defaulting to ``time.monotonic``) and explicit seeded generators
(:func:`repro.rng.make_rng` / ``rng_for``) — never ambient wall clocks
or the global random state.

Inside ``Manifest.hot_packages`` this rule flags:

``det-wall-clock``
    ``time.time()`` / ``time.time_ns()`` / ``datetime.now()`` /
    ``datetime.utcnow()`` / ``date.today()`` — wall-clock reads that
    make results depend on when the run happened.  (``time.monotonic``
    and ``time.perf_counter`` stay legal: they measure durations, not
    calendar time, and only feed telemetry.)
``det-unseeded-rng``
    the global ``random`` module, ``np.random.<fn>`` module-level
    draws, or ``np.random.default_rng()`` with no seed — all of which
    sample hidden global or OS-entropy state.  Seeded construction
    (``np.random.default_rng(seed)``, ``Generator``, ``SeedSequence``)
    passes.  ``from random import ...`` / ``from numpy.random import
    ...`` are flagged at the import, where the review happens.
``det-salted-hash``
    builtin ``hash(...)`` or a direct ``.__hash__()`` call — for
    ``str`` and ``bytes`` (and anything containing them) the value is
    salted per process (``PYTHONHASHSEED``), so a seed or key derived
    from it differs on every run.  :func:`repro.rng.stable_hash` /
    ``rng_for`` are the process-independent forms.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleInfo
from repro.analysis.findings import ERROR, Finding
from repro.analysis.manifest import Manifest

#: Dotted-name suffixes that read the wall clock.
WALL_CLOCK_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: numpy.random constructors that are fine *when given a seed*.
_SEEDABLE = frozenset({"default_rng", "Generator", "SeedSequence"})


def _dotted(expr: ast.expr) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name):
        return None
    parts.append(expr.id)
    return ".".join(reversed(parts))


def _is_wall_clock(dotted: str) -> bool:
    return any(
        dotted == suffix or dotted.endswith("." + suffix)
        for suffix in WALL_CLOCK_SUFFIXES
    )


def _np_random_leaf(dotted: str) -> str | None:
    """The function name of an ``np.random.*`` / ``numpy.random.*`` call."""
    for prefix in ("np.random.", "numpy.random."):
        if dotted.startswith(prefix):
            return dotted[len(prefix) :]
    return None


def _seeded(call: ast.Call) -> bool:
    """Whether a seedable constructor call actually passes a seed."""
    if call.args:
        first = call.args[0]
        return not (
            isinstance(first, ast.Constant) and first.value is None
        )
    return any(
        kw.arg in ("seed", "entropy") and kw.value is not None
        for kw in call.keywords
    )


def _is_salted_hash(func: ast.expr) -> bool:
    """``hash(...)`` or ``<anything>.__hash__()``."""
    if isinstance(func, ast.Name):
        return func.id == "hash"
    return isinstance(func, ast.Attribute) and func.attr == "__hash__"


def _diagnose(node: ast.AST) -> tuple[str, str] | None:
    """``(rule, message)`` when ``node`` breaks a determinism rule."""
    if isinstance(node, ast.ImportFrom):
        if node.module in ("random", "numpy.random"):
            return "det-unseeded-rng", (
                f"`from {node.module} import ...` in a hot-path package "
                "hides global RNG state; take an explicit "
                "np.random.Generator (repro.rng.make_rng) instead"
            )
        return None
    if not isinstance(node, ast.Call):
        return None
    if _is_salted_hash(node.func):
        return "det-salted-hash", (
            "hash() of str/bytes is salted per process (PYTHONHASHSEED); "
            "derive seeds and keys with repro.rng.stable_hash / rng_for"
        )
    dotted = _dotted(node.func)
    if dotted is None:
        return None
    if _is_wall_clock(dotted):
        return "det-wall-clock", (
            f"{dotted}() reads the wall clock in a hot-path package; "
            "inject a clock (clock=time.monotonic param) or use the "
            "simulated clock"
        )
    leaf = _np_random_leaf(dotted)
    if leaf is not None:
        if leaf in _SEEDABLE and _seeded(node):
            return None
        detail = (
            f"{dotted}() without a seed"
            if leaf in _SEEDABLE
            else f"{dotted}() draws from numpy's global RNG"
        )
        return "det-unseeded-rng", (
            f"{detail}; hot-path code must thread a seeded Generator "
            "(repro.rng.make_rng / rng_for)"
        )
    if dotted.startswith("random."):
        return "det-unseeded-rng", (
            f"{dotted}() uses the global random module in a hot-path "
            "package; thread a seeded Generator (repro.rng.make_rng) "
            "instead"
        )
    return None


def check(modules: list[ModuleInfo], manifest: Manifest) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        if not any(
            module.rel.startswith(pkg) or ("/" + pkg) in module.rel
            for pkg in manifest.hot_packages
        ):
            continue
        for node in ast.walk(module.tree):
            if (diagnosis := _diagnose(node)) is not None:
                rule, message = diagnosis
                findings.append(
                    Finding(
                        rule=rule,
                        path=module.rel,
                        line=node.lineno,
                        message=message,
                        severity=ERROR,
                    )
                )
    return findings
