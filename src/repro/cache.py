"""Process-wide cache registry and the one row cache of the candidate path.

Several hot-path modules memoize pure functions of (space, config):
lowering, feature rows, divisor tables.  Every memo in the repository
registers a *clear hook* here, and the service calls
:func:`clear_caches` between jobs so a long-running multi-job process
does not pin workload and schedule objects it will never use again.
The registry neither owns the cached data nor changes lookup semantics;
it only makes "drop everything cached" a single call, and
:func:`cache_stats` one place to read every cache's counters
(``GET /metrics``, the end-to-end benchmark).

Usage::

    from repro.cache import register_lru

    @lru_cache(maxsize=65536)
    def _expensive(key): ...
    register_lru("mymod._expensive", _expensive)

:class:`RowCache` is the cross-round store behind both
``schedule.memo.LOWERED_ROWS`` and ``features.cache.FEATURE_ROWS``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Protocol

import numpy as np


class _LruLike(Protocol):  # what functools.lru_cache exposes
    def cache_clear(self) -> None: ...


_REGISTRY: dict[str, Callable[[], None]] = {}
_STATS_HOOKS: dict[str, Callable[[], dict]] = {}
_GUARD = threading.Lock()


def register_cache(
    name: str, clear: Callable[[], None], stats: Callable[[], dict] | None = None
) -> None:
    """Register a clear hook under a unique dotted name.

    ``stats`` (optional) reports the cache's counters — a dict with any
    of ``hits`` / ``misses`` / ``evictions`` / ``rows`` — so the cache
    surfaces a hit rate on ``GET /metrics`` (see :mod:`repro.obs`).
    Re-registering the same name replaces the hooks (module reloads).
    """
    with _GUARD:
        _REGISTRY[name] = clear
        if stats is not None:
            _STATS_HOOKS[name] = stats


def register_lru(name: str, fn: _LruLike):
    """Register an ``lru_cache``-decorated function; returns it unchanged."""
    register_cache(name, fn.cache_clear)
    return fn


def registered_caches() -> list[str]:
    """Names of every registered cache (sorted, for introspection)."""
    with _GUARD:
        return sorted(_REGISTRY)


def cache_stats() -> dict[str, dict]:
    """Current counters of every cache with a stats hook, keyed by name."""
    with _GUARD:
        hooks = sorted(_STATS_HOOKS.items())
    return {name: dict(fn()) for name, fn in hooks}


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


# ----------------------------------------------------------------------
# the row cache
# ----------------------------------------------------------------------
#: Rows a :class:`RowCache` holds before it evicts — the memory guard.
#: A paper-scale Ansor job ends at ~65.2k lowered rows, just under it.
MAX_ROWS = 1 << 16


class RowCache:
    """Bounded ``(partition, row key) -> row`` store of computed chunks.

    A partition (a schedule space, or a space and a feature kind) holds
    an index ``key -> (chunk number, row)`` and the append-only list of
    the chunks ``compute`` returned for it.  Chunks are whatever the
    caller's ``take(chunk, index array)`` and ``concat(chunks)`` work
    on, and are never modified once stored — a fetch that resolved its
    hits stays correct however the store changes afterwards.

    Over :data:`MAX_ROWS` rows, whole partitions leave, least recently
    fetched first (per-row eviction would invalidate the row numbers
    behind it).  The counters survive :meth:`clear`.
    """

    def __init__(
        self,
        take: Callable[[Any, np.ndarray], Any],
        concat: Callable[[list], Any],
    ) -> None:
        self._take = take
        self._concat = concat
        # partition -> (key -> (chunk number, row), chunks)
        self._parts: OrderedDict[Hashable, tuple[dict, list]] = OrderedDict()
        self._rows = 0
        self._lock = threading.Lock()
        self.hits = 0  # rows served from a stored chunk
        self.misses = 0  # rows handed to compute
        self.evictions = 0  # rows dropped by the bound

    def __len__(self) -> int:
        with self._lock:
            return self._rows

    def clear(self) -> None:
        """Drop every stored row."""
        with self._lock:
            self._parts.clear()
            self._rows = 0

    def stats(self) -> dict[str, int]:
        """Counters for hit-rate reporting (``GET /metrics``, benches, CI)."""
        with self._lock:
            return {
                "rows": self._rows,
                "partitions": len(self._parts),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def fetch(
        self,
        partition: Hashable,
        keys: list[bytes],
        compute: Callable[[np.ndarray], Any],
    ) -> Any:
        """Rows for ``keys``, in request order, computing only the misses.

        ``compute`` receives the positions (into ``keys``) found in no
        stored chunk — repeats of an unseen key included — and returns
        exactly their rows as one chunk; it runs outside the lock.
        """
        n = len(keys)
        if not n:
            return compute(np.empty(0, dtype=np.int64))
        miss: list[int] = []
        by_chunk: dict[int, tuple[list[int], list[int]]] = {}
        with self._lock:
            index, chunks = self._partition(partition)
            for i, key in enumerate(keys):
                at = index.get(key)
                if at is None:
                    miss.append(i)
                else:
                    rows, positions = by_chunk.setdefault(at[0], ([], []))
                    rows.append(at[1])
                    positions.append(i)
            self.hits += n - len(miss)
            self.misses += len(miss)
        parts = [
            self._take(chunks[c], np.array(rows, dtype=np.int64))
            for c, (rows, _) in by_chunk.items()
        ]
        if not miss and len(parts) == 1:
            return parts[0]  # one chunk's rows, taken in request order
        order = [positions for _, positions in by_chunk.values()]
        if miss:
            fresh = compute(np.array(miss, dtype=np.int64))
            self._store(partition, keys, miss, fresh)
            if not parts:
                return fresh  # nothing hit: compute's chunk is the request
            parts.append(fresh)
            order.append(miss)
        back = np.empty(n, dtype=np.int64)
        back[np.concatenate(order)] = np.arange(n)
        return self._take(self._concat(parts), back)

    def _store(
        self, partition: Hashable, keys: list[bytes], miss: list[int], fresh: Any
    ) -> None:
        with self._lock:
            # Resolved again: a clear() or an eviction while compute ran
            # detached the partition the lookup saw, and rows indexed
            # there would be counted but unreachable.
            index, chunks = self._partition(partition)
            at, new = len(chunks), 0
            for row, i in enumerate(miss):
                if keys[i] not in index:  # a repeated key is stored once
                    index[keys[i]] = (at, row)
                    new += 1
            if new:
                chunks.append(fresh)
                self._rows += new
                self._evict()

    def _partition(self, partition: Hashable) -> tuple[dict, list]:
        """The partition's (index, chunks), now the most recently used."""
        part = self._parts.get(partition)
        if part is None:
            part = self._parts[partition] = ({}, [])
        self._parts.move_to_end(partition)
        return part

    def _evict(self) -> None:
        while self._rows > MAX_ROWS and self._parts:
            _, (index, _) = self._parts.popitem(last=False)
            self._rows -= len(index)
            self.evictions += len(index)
