"""repro.analysis — project-aware static analysis (stdlib ``ast`` only).

A draft-then-verify pass for the codebase itself: cheap static rules
prune whole classes of concurrency and determinism bugs before they
reach the expensive test/bench/fleet layers (the same shape PrediPrune
gives the candidate funnel).  Four rule families, the first three
driven by the declared facts in :mod:`repro.analysis.manifest`:

* **locks** — unguarded access to declared thread-shared state, helpers
  called without their assumed lock, re-acquisition deadlocks, and
  cycles in the static lock-acquisition graph.
* **determinism** — wall clocks and unseeded RNGs in the hot-path
  packages (``schedule/``, ``search/``, ``costmodel/``, ``features/``).
* **hygiene** — no silent broad excepts, no generic raises at API
  boundaries, every module-level cache registered in :mod:`repro.cache`.
* **imports** — module-level imports the module never reads (ruff's
  F401, so the check needs no ruff).

Run it with ``python -m repro.analysis src/repro`` (text or
``--format=json``); CI gates on exit 0.  The runtime companion
:mod:`repro.analysis.lockcheck` is a pytest plugin
(``pytest -p repro.analysis.lockcheck``) that records the *actual*
lock-acquisition order during tests and fails the run if it — combined
with the static graph — contains a cycle.
"""

from repro.analysis.engine import (
    ModuleInfo,
    Report,
    analyze_paths,
    default_rules,
    load_modules,
)
from repro.analysis.findings import ERROR, WARNING, Finding
from repro.analysis.manifest import (
    DEFAULT_MANIFEST,
    Manifest,
    ModuleLock,
    SharedClass,
)

__all__ = [
    "DEFAULT_MANIFEST",
    "ERROR",
    "WARNING",
    "Finding",
    "Manifest",
    "ModuleInfo",
    "ModuleLock",
    "Report",
    "SharedClass",
    "analyze_paths",
    "default_rules",
    "load_modules",
]
