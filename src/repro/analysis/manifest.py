"""The analysis manifest: the project facts the rules check against.

Generic linters cannot know *which* classes are thread-shared, *which*
module globals a lock guards, or *which* packages form the deterministic
hot path — so this module declares them.  The manifest is data, not
code: adding a newly concurrent class means adding one
:class:`SharedClass` entry here, and every lock rule (static and the
runtime :mod:`repro.analysis.lockcheck` companion) picks it up.

``DEFAULT_MANIFEST`` describes the real tree under ``src/repro``; tests
build small manifests of their own against fixture packages.

Conventions
-----------
* ``module`` is a posix path *suffix* matched against scanned files
  (``repro/obs/registry.py``), so the same manifest works whether the
  scan root is ``src/repro`` or an installed package directory.
* ``node`` is the dotted name a lock gets in the lock-acquisition graph
  (``obs.registry.Counter._lock``); the runtime lockcheck plugin labels
  the real lock objects with the same names so the two graphs overlay.
* Locks guard *mutable* state only.  Attributes assigned once in
  ``__init__`` and never rebound (tuples, injected clocks, bucket
  boundaries) are deliberately not listed: flagging reads of immutables
  would force locks where the memory model needs none.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SharedClass:
    """A class whose instances are shared across threads.

    ``locks`` maps each lock attribute to the tuple of instance
    attributes it guards.  ``helpers`` maps method names to the lock
    attribute they *assume* is already held (``_evict`` style internal
    helpers) — their bodies are checked as if the lock were held, and
    calling them without it is itself a finding.
    """

    module: str
    name: str
    node: str
    locks: dict[str, tuple[str, ...]]
    helpers: dict[str, str] = field(default_factory=dict)

    def lock_node(self, lock_attr: str) -> str:
        return f"{self.node}.{lock_attr}"


@dataclass(frozen=True)
class ModuleLock:
    """A module-global lock and the module globals it guards."""

    module: str
    name: str
    node: str
    guards: tuple[str, ...] = ()


@dataclass(frozen=True)
class Manifest:
    """Everything the project-specific rules know about the codebase."""

    shared_classes: tuple[SharedClass, ...] = ()
    module_locks: tuple[ModuleLock, ...] = ()
    #: Path prefixes (posix, relative) where wall clocks and unseeded
    #: RNGs are forbidden — the deterministic draft/verify hot path.
    hot_packages: tuple[str, ...] = ()
    #: External callables known to acquire locks: name -> graph nodes.
    #: Lets the graph see through calls into modules the scan cannot
    #: resolve (e.g. ``note_lowered`` incrementing an obs Counter).
    function_acquirers: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Names whose presence in an ``except Exception`` body marks the
    #: handler as *accounted for* (it feeds an error counter).
    error_counters: tuple[str, ...] = ("CAUGHT",)

    def classes_in(self, rel_path: str) -> list[SharedClass]:
        return [c for c in self.shared_classes if rel_path.endswith(c.module)]

    def module_locks_in(self, rel_path: str) -> list[ModuleLock]:
        return [m for m in self.module_locks if rel_path.endswith(m.module)]


#: The manifest for the real tree.  Keep this in sync with the
#: concurrency story of the code it names: the meta-test in
#: ``tests/test_analysis.py`` runs the analyzer over ``src/repro`` with
#: it and requires a clean report.
DEFAULT_MANIFEST = Manifest(
    shared_classes=(
        SharedClass(
            module="repro/obs/registry.py",
            name="Counter",
            node="obs.registry.Counter",
            locks={"_lock": ("_value",)},
        ),
        SharedClass(
            module="repro/obs/registry.py",
            name="Gauge",
            node="obs.registry.Gauge",
            locks={"_lock": ("_value",)},
        ),
        SharedClass(
            module="repro/obs/registry.py",
            name="Histogram",
            node="obs.registry.Histogram",
            locks={"_lock": ("_counts", "_sum", "_total")},
        ),
        SharedClass(
            module="repro/obs/registry.py",
            name="MetricFamily",
            node="obs.registry.MetricFamily",
            locks={"_lock": ("_children",)},
        ),
        SharedClass(
            module="repro/obs/registry.py",
            name="MetricsRegistry",
            node="obs.registry.MetricsRegistry",
            locks={"_lock": ("_families", "_collectors")},
        ),
        SharedClass(
            module="repro/obs/trace.py",
            name="TraceSink",
            node="obs.trace.TraceSink",
            locks={"_lock": ("_bytes",)},
            helpers={"_enforce_cap": "_lock"},
        ),
        SharedClass(
            module="repro/serve/protocol.py",
            name="LeaseTable",
            node="serve.protocol.LeaseTable",
            locks={"_lock": ("_leases", "_retired")},
            helpers={"_retire": "_lock", "_live": "_lock"},
        ),
        SharedClass(
            module="repro/serve/protocol.py",
            name="EventBroker",
            node="serve.protocol.EventBroker",
            locks={"_cond": ("_events", "_next_seq", "_closed")},
        ),
        SharedClass(
            module="repro/serve/http.py",
            name="TokenBucketLimiter",
            node="serve.http.TokenBucketLimiter",
            locks={"_lock": ("_buckets",)},
        ),
        SharedClass(
            module="repro/serve/http.py",
            name="JsonHTTPServer",
            node="serve.http.JsonHTTPServer",
            locks={"_lock": ("_connections",)},
        ),
        SharedClass(
            module="repro/serve/engine.py",
            name="JobEngine",
            node="serve.engine.JobEngine",
            locks={
                "_results_lock": ("_results",),
                "_store_keys_lock": ("_store_keys",),
                "_rounds_lock": ("_noted_rounds",),
            },
        ),
        SharedClass(
            module="repro/service/jobs.py",
            name="JobQueue",
            node="service.jobs.JobQueue",
            locks={"_cond": ("_heap", "_jobs", "_seq", "_closed", "_pushes")},
            helpers={"_push": "_cond"},
        ),
    ),
    module_locks=(
        ModuleLock(
            module="repro/cache.py",
            name="_GUARD",
            node="repro.cache._GUARD",
            guards=("_REGISTRY",),
        ),
        # serializes append_jsonl's render-then-append (ledger, results)
        ModuleLock(
            module="repro/journal.py",
            name="_LEDGER_LOCK",
            node="repro.journal._LEDGER_LOCK",
        ),
        # a leaf: single_thread() calls only into ctypes under it
        ModuleLock(
            module="repro/blas.py",
            name="_LOCK",
            node="repro.blas._LOCK",
            guards=("_API", "_DEPTH", "_SAVED"),
        ),
    ),
    hot_packages=(
        "repro/schedule/",
        "repro/search/",
        "repro/costmodel/",
        "repro/features/",
        "repro/nn/",
        "repro/baselines/",
        "repro/core/",
        "repro/hardware/",
        "repro/dataset/",
        "repro/experiments/",
    ),
    function_acquirers={
        # the lowering layer increments the obs LOWERED counter
        "note_lowered": ("obs.registry.Counter._lock",),
        "lower_batch": ("obs.registry.Counter._lock",),
        # append_jsonl calls its ``rows`` argument under _LEDGER_LOCK;
        # JobQueue.append_ledger passes one that reads the queue
        "rows": ("service.jobs.JobQueue._cond",),
        # every repro.cache entry point takes the module guard
        "register_cache": ("repro.cache._GUARD",),
        "register_lru": ("repro.cache._GUARD",),
        "clear_caches": ("repro.cache._GUARD",),
        "registered_caches": ("repro.cache._GUARD",),
    },
)
