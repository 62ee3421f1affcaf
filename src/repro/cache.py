"""Process-wide registry of the clearable memos.

Several modules memoize pure functions of a workload or a space: space
plans, divisor tables, the simulator's residual net.  Every memo in the
repository registers a *clear hook* here, and the service calls
:func:`clear_caches` between jobs so a long-running multi-job process
does not pin workload and schedule objects it will never use again.
The registry neither owns the cached data nor changes lookup semantics;
it only makes "drop everything cached" a single call.

Usage::

    from repro.cache import register_lru

    @lru_cache(maxsize=65536)
    def _expensive(key): ...
    register_lru("mymod._expensive", _expensive)

Candidate rows are not cached: lowered and feature rows of a config
almost never recur across rounds (3-20 % hits per job), so lowering
and encoding compute every row they are asked for.
"""

from __future__ import annotations

import threading
from typing import Callable, Protocol


class _LruLike(Protocol):  # what functools.lru_cache exposes
    def cache_clear(self) -> None: ...


_REGISTRY: dict[str, Callable[[], None]] = {}
_GUARD = threading.Lock()


def register_cache(name: str, clear: Callable[[], None]) -> None:
    """Register a clear hook under a unique dotted name.

    Re-registering the same name replaces the hook (module reloads).
    """
    with _GUARD:
        _REGISTRY[name] = clear


def register_lru(name: str, fn: _LruLike):
    """Register an ``lru_cache``-decorated function; returns it unchanged."""
    register_cache(name, fn.cache_clear)
    return fn


def registered_caches() -> list[str]:
    """Names of every registered cache (sorted, for introspection)."""
    with _GUARD:
        return sorted(_REGISTRY)


# benchmarks/e2e/workloads.py indexes hits / misses / evictions / rows
# under these two names (ROADMAP item 1c); no cache stands behind them.
_ROW_CACHE_NAMES = ("schedule.memo.LOWERED_ROWS", "features.cache.FEATURE_ROWS")


def cache_stats() -> dict[str, dict]:
    """The four counters under each name the end-to-end benchmark reads:
    always zero, since candidate rows are not cached."""
    return {
        name: {"hits": 0, "misses": 0, "evictions": 0, "rows": 0}
        for name in _ROW_CACHE_NAMES
    }


def clear_caches() -> int:
    """Clear every registered cache; returns the number of caches cleared.

    Safe to call at any quiescent point (between tuning jobs, between
    tests).  Individual clear hooks must be idempotent.
    """
    with _GUARD:
        hooks = list(_REGISTRY.values())
    for clear in hooks:
        clear()
    return len(hooks)


# the two names stay listed by registered_caches(); there is nothing to clear
for _name in _ROW_CACHE_NAMES:
    register_cache(_name, lambda: None)
