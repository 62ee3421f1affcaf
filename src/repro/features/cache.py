"""Single feature-row cache keyed on (schedule space, config row).

All feature kinds (statement / dataflow / primitives) share one bounded
store: per space, per config row (``ConfigBatch.row_keys()`` bytes, the
identity the lowering memo uses too), per kind, one encoded row.
Replaces the three per-program ``lru_cache`` memos that grew without
bound across tasks; the cache registers a clear hook with
:mod:`repro.cache` so the tuning service can drop it between jobs.

The batch encoders consult it through :meth:`FeatureRowCache.fetch`,
which computes only the missing rows (vectorized) and fills the rest
from the store — so recurring candidates (GA elites, warm-start seeds)
skip re-encoding across tuning rounds.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.cache import register_bounded
from repro.schedule.space import ScheduleSpace

#: Maximum cached rows across all spaces and feature kinds.
DEFAULT_CAPACITY = 1 << 16


class FeatureRowCache:
    """Bounded (space, config row) -> feature-row store, FIFO eviction."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._spaces: OrderedDict[
            ScheduleSpace, OrderedDict[tuple[str, bytes], np.ndarray]
        ] = OrderedDict()
        self._count = 0
        self._lock = threading.Lock()
        self.hits = 0  # rows served from the store
        self.misses = 0  # rows that had to be encoded
        self.evictions = 0  # rows dropped by capacity pressure

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def clear(self) -> None:
        """Drop every cached row (hit/miss/eviction counters survive)."""
        with self._lock:
            self._spaces.clear()
            self._count = 0

    def stats(self) -> dict[str, int]:
        """Counters for hit-rate reporting (``GET /metrics``, bench)."""
        with self._lock:
            return {
                "rows": self._count,
                "spaces": len(self._spaces),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def set_capacity(self, capacity: int) -> None:
        """Re-bound the cache, evicting immediately if now over."""
        with self._lock:
            self.capacity = capacity
            self._evict()

    def fetch(
        self,
        space: ScheduleSpace,
        kind: str,
        keys: list[bytes],
        compute: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Rows for ``keys`` (in order), computing only the missing ones.

        ``compute`` receives the indices (into ``keys``) of the misses
        and must return the encoded rows for exactly those candidates,
        stacked along axis 0.
        """
        with self._lock:
            inner = self._spaces.get(space)
            if inner is None:
                inner = self._spaces[space] = OrderedDict()
            self._spaces.move_to_end(space)
            rows: list[np.ndarray | None] = [inner.get((kind, k)) for k in keys]
        missing = np.flatnonzero([r is None for r in rows])
        with self._lock:
            self.hits += len(keys) - len(missing)
            self.misses += len(missing)
        if len(missing):
            fresh = compute(missing)
            with self._lock:
                # Re-resolve: a concurrent clear() may have detached the
                # inner dict captured above — inserting into it would
                # leak rows and desynchronize the count.
                inner = self._spaces.get(space)
                if inner is None:
                    inner = self._spaces[space] = OrderedDict()
                for j, i in enumerate(missing):
                    rows[int(i)] = fresh[j]
                    entry = (kind, keys[int(i)])
                    if entry not in inner:  # duplicates count once
                        self._count += 1
                    inner[entry] = fresh[j]
                self._evict()
        return np.stack(rows)  # type: ignore[arg-type]

    def _evict(self) -> None:
        """FIFO-evict rows (oldest space first) until under capacity.

        Counts every dropped row — including drops triggered by a
        :meth:`set_capacity` shrink, which used to discard accumulated
        entries without any record.
        """
        while self._count > self.capacity and self._spaces:
            space, inner = next(iter(self._spaces.items()))
            while inner and self._count > self.capacity:
                inner.popitem(last=False)
                self._count -= 1
                self.evictions += 1
            if not inner:
                del self._spaces[space]


#: The process-wide instance every batch feature encoder shares.
FEATURE_ROWS = FeatureRowCache()
register_bounded(
    "features.cache.FEATURE_ROWS",
    FEATURE_ROWS.clear,
    FEATURE_ROWS.set_capacity,
    stats=FEATURE_ROWS.stats,
)
