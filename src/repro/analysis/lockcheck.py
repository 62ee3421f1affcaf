"""Runtime lock-order sanitizer: a pytest plugin.

Enable with ``pytest -p repro.analysis.lockcheck``.  At configure time
the plugin wraps every lock the analysis manifest declares — class lock
attributes (via an ``__init__`` hook, plus the already-constructed
process-wide instances like ``obs.METRICS`` and the two row caches) and
the module-global locks — in a :class:`_TrackingLock` that records, per
thread, which tracked locks are held whenever another is acquired.

At session finish it overlays the *observed* acquisition edges on the
*static* lock graph from :func:`repro.analysis.locks.static_edges` and
fails the run (exit status 1) when:

* a thread re-acquired a tracked non-reentrant lock it already held
  (a real self-deadlock, observed live), or
* the union of observed and static edges contains a cycle — i.e. the
  test run exercised a lock order the static graph forbids, or vice
  versa.  Checking the union is the point: static analysis alone cannot
  see orders taken through callbacks and injected callables; the tests
  alone cannot see orders they did not happen to schedule.  Together a
  cycle means two threads *can* take the locks in opposite order.

Observed edges that the static graph lacks are reported informationally
in the terminal summary — they are candidates for
``function_acquirers`` entries, not failures, as long as the union
stays acyclic.

The wrapper adds two dict operations per acquisition of a *tracked*
lock; untracked locks (numpy internals, the thread pool) cost nothing.
"""

from __future__ import annotations

import importlib
import threading
from pathlib import Path

from repro.analysis.locks import static_edges
from repro.analysis.manifest import DEFAULT_MANIFEST, Manifest


class _Recorder:
    """Per-thread held-lock stacks + a global observed-edge multiset."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._mutex = threading.Lock()
        self.edges: dict[tuple[str, str], int] = {}
        self.violations: list[str] = []

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def acquiring(self, node: str) -> None:
        """Record intent to acquire ``node`` on this thread."""
        stack = self._stack()
        if stack:
            with self._mutex:
                if node in stack:
                    self.violations.append(
                        f"thread re-acquired non-reentrant lock {node} "
                        f"while holding it (stack: {' -> '.join(stack)})"
                    )
                for held in stack:
                    if held != node:
                        key = (held, node)
                        self.edges[key] = self.edges.get(key, 0) + 1
        stack.append(node)

    def released(self, node: str) -> None:
        stack = self._stack()
        # remove the innermost hold (locks release LIFO in practice,
        # but a misnested release must not corrupt the stack)
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == node:
                del stack[i]
                return

    def failed_acquire(self, node: str) -> None:
        """Undo :meth:`acquiring` after a non-blocking acquire miss."""
        self.released(node)

    def snapshot(self) -> dict[tuple[str, str], int]:
        with self._mutex:
            return dict(self.edges)


RECORDER = _Recorder()


class _TrackingLock:
    """A lock proxy that reports acquisition order to the recorder."""

    __slots__ = ("_node", "_inner")

    def __init__(self, node: str, inner) -> None:
        self._node = node
        self._inner = inner

    def __enter__(self):
        RECORDER.acquiring(self._node)
        self._inner.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._inner.release()
        RECORDER.released(self._node)
        return False

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        RECORDER.acquiring(self._node)
        got = self._inner.acquire(blocking, timeout)
        if not got:
            RECORDER.failed_acquire(self._node)
        return got

    def release(self) -> None:
        self._inner.release()
        RECORDER.released(self._node)

    def locked(self) -> bool:
        return self._inner.locked()

    # Condition forwarding: manifest locks may be threading.Condition
    # objects (e.g. the serve EventBroker).  wait() releases and
    # re-takes the same underlying lock on the same thread, which adds
    # no acquisition-order edge — so the recorder's view (held across
    # the wait) stays sound; only the primitives need passing through.
    def wait(self, timeout: float | None = None) -> bool:
        return self._inner.wait(timeout)

    def wait_for(self, predicate, timeout: float | None = None):
        return self._inner.wait_for(predicate, timeout)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


def _import_path(module_suffix: str) -> str:
    """``repro/obs/registry.py`` -> ``repro.obs.registry``."""
    return module_suffix.removesuffix(".py").replace("/", ".")


def _wrap_attr(obj, attr: str, node: str) -> None:
    current = getattr(obj, attr, None)
    if current is None or isinstance(current, _TrackingLock):
        return
    setattr(obj, attr, _TrackingLock(node, current))


def _wrap_instance(obj, manifest: Manifest) -> None:
    """Wrap the declared lock attrs of one already-built instance."""
    cls_name = type(obj).__name__
    for spec in manifest.shared_classes:
        if spec.name == cls_name:
            for lock_attr in spec.locks:
                _wrap_attr(obj, lock_attr, spec.lock_node(lock_attr))
            return


def _instrument_class(cls, spec) -> None:
    """Make future instances of ``cls`` carry tracking locks."""
    if getattr(cls, "_repro_lockcheck", False):
        return
    original_init = cls.__init__
    lock_nodes = {attr: spec.lock_node(attr) for attr in spec.locks}

    def patched_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        for attr, node in lock_nodes.items():
            _wrap_attr(self, attr, node)

    patched_init.__wrapped__ = original_init
    cls.__init__ = patched_init
    cls._repro_lockcheck = True


def instrument(manifest: Manifest | None = None) -> None:
    """Wrap every manifest-declared lock (classes, globals, singletons)."""
    manifest = DEFAULT_MANIFEST if manifest is None else manifest
    for spec in manifest.shared_classes:
        module = importlib.import_module(_import_path(spec.module))
        cls = getattr(module, spec.name, None)
        if cls is not None:
            _instrument_class(cls, spec)
    for mlock in manifest.module_locks:
        module = importlib.import_module(_import_path(mlock.module))
        current = getattr(module, mlock.name, None)
        if current is not None and not isinstance(current, _TrackingLock):
            setattr(module, mlock.name, _TrackingLock(mlock.node, current))

    # Instances built at import time predate the class hook: wrap the
    # process-wide singletons (and the metric families/children the
    # global registry already minted) in place.
    import repro.features.cache as features_cache
    import repro.obs as obs
    import repro.schedule.memo as schedule_memo

    _wrap_instance(features_cache.FEATURE_ROWS, manifest)
    _wrap_instance(schedule_memo.LOWERED_ROWS, manifest)
    _wrap_instance(obs.METRICS, manifest)
    for family in obs.METRICS.families():
        _wrap_instance(family, manifest)
        for _key, child in family.children():
            _wrap_instance(child, manifest)
        if getattr(family, "_default", None) is not None:
            _wrap_instance(family._default, manifest)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _cycle_in(edges: set[tuple[str, str]]) -> list[str] | None:
    adjacency: dict[str, list[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, [])
    state: dict[str, int] = {}
    stack: list[str] = []

    def dfs(node: str) -> list[str] | None:
        state[node] = 1
        stack.append(node)
        for nxt in sorted(adjacency[node]):
            if state.get(nxt, 0) == 1:
                return stack[stack.index(nxt) :] + [nxt]
            if state.get(nxt, 0) == 0:
                found = dfs(nxt)
                if found:
                    return found
        stack.pop()
        state[node] = 2
        return None

    for node in sorted(adjacency):
        if state.get(node, 0) == 0:
            found = dfs(node)
            if found:
                return found
    return None


def validate(manifest: Manifest | None = None) -> tuple[list[str], list[str]]:
    """(problems, notes) from the observed + static graphs."""
    manifest = DEFAULT_MANIFEST if manifest is None else manifest
    import repro

    src_root = Path(repro.__file__).resolve().parent
    from repro.analysis.engine import load_modules

    static = set(static_edges(load_modules([src_root]), manifest))
    observed = RECORDER.snapshot()

    problems = list(RECORDER.violations)
    cycle = _cycle_in(static | set(observed))
    if cycle is not None:
        problems.append(
            "lock-order cycle across observed + static acquisition "
            "edges: " + " -> ".join(cycle)
        )
    notes = [
        f"observed lock edge not in the static graph: {a} -> {b} "
        f"({count} acquisitions) — consider a function_acquirers entry"
        for (a, b), count in sorted(observed.items())
        if (a, b) not in static
    ]
    return problems, notes


# ----------------------------------------------------------------------
# pytest hooks
# ----------------------------------------------------------------------
_RESULT: dict = {}


def pytest_configure(config) -> None:
    instrument()


def _validated() -> tuple[list[str], list[str]]:
    if "problems" not in _RESULT:
        problems, notes = validate()
        _RESULT["problems"] = problems
        _RESULT["notes"] = notes
    return _RESULT["problems"], _RESULT["notes"]


def pytest_sessionfinish(session, exitstatus) -> None:
    problems, _notes = _validated()
    if problems and exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    problems, notes = _validated()
    observed = RECORDER.snapshot()
    if not (problems or notes or observed):
        return
    terminalreporter.section("repro.analysis.lockcheck")
    for (a, b), count in sorted(observed.items()):
        terminalreporter.write_line(f"observed: {a} -> {b} x{count}")
    for note in notes:
        terminalreporter.write_line(f"note: {note}")
    for problem in problems:
        terminalreporter.write_line(f"FAIL: {problem}")
    if problems:
        terminalreporter.write_line(
            "lockcheck: runtime lock order violates the static lock graph"
        )
    else:
        terminalreporter.write_line("lockcheck: no ordering violations")
