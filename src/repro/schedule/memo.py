"""Persistent cross-round lowering memo: (space, config) -> packed rows.

Every verify round re-lowers its drafted set, yet draft sets overlap
heavily across rounds — GA elites, warm-start seeds and mutation
neighborhoods recur by construction (the same observation behind
parakeet-style ``_lowered_functions`` memos, made array-native here).
:class:`LoweredRowCache` stores already-lowered candidates as rows of a
per-space :class:`~repro.schedule.batch.CandidateBatch` arena; a fetch
gathers the hits with one vectorized ``take`` and lowers only the
missing rows, so a warm round's verify stage does strictly less
lowering work than a cold one.

Row identity is :meth:`ConfigBatch.row_keys` — the raw factor/annotation
bytes of the config row, the one candidate identity the feature cache
and measurement selection share — no string keys, no config
materialization.  The cache is bounded (FIFO over
spaces, like :class:`~repro.features.cache.FeatureRowCache`) and
registers clear + capacity hooks with :mod:`repro.cache`, so the
service/serve layers can drop or re-size it between jobs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.cache import register_bounded
from repro.schedule.batch import CandidateBatch, ConfigBatch, lower_batch
from repro.schedule.space import ScheduleConfig, ScheduleSpace

#: Maximum cached rows across all spaces.
DEFAULT_CAPACITY = 1 << 16


@dataclass
class _SpaceArena:
    """All cached rows of one space: a growing batch + key -> row index."""

    batch: CandidateBatch | None = None
    index: dict[bytes, int] = field(default_factory=dict)


class LoweredRowCache:
    """Bounded (space, config row) -> lowered-row store, FIFO eviction."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._spaces: OrderedDict[ScheduleSpace, _SpaceArena] = OrderedDict()
        self._count = 0
        self._lock = threading.Lock()
        self.hits = 0  # rows served from the arena
        self.misses = 0  # rows that had to be lowered
        self.evictions = 0  # rows dropped by capacity pressure

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def clear(self) -> None:
        """Drop every cached row (hit/miss counters survive)."""
        with self._lock:
            self._spaces.clear()
            self._count = 0

    def set_capacity(self, capacity: int) -> None:
        """Re-bound the cache, evicting immediately if now over."""
        with self._lock:
            self.capacity = capacity
            self._evict()

    def stats(self) -> dict[str, int]:
        """Counters for memo-effectiveness checks (bench / CI / metrics)."""
        with self._lock:
            return {
                "rows": self._count,
                "spaces": len(self._spaces),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    # ------------------------------------------------------------------
    def lower(
        self, space: ScheduleSpace, configs: ConfigBatch | list[ScheduleConfig]
    ) -> CandidateBatch:
        """Memoized :func:`~repro.schedule.batch.lower_batch`.

        Returns the same arrays ``lower_batch`` would (row for row, in
        request order); only rows never seen before are actually
        lowered.  Like ``lower_batch``, raises
        :class:`~repro.errors.ScheduleError` for rows outside the space
        — cached rows were validated when first lowered, so only the
        missing rows need validation.
        """
        if not isinstance(configs, ConfigBatch):
            configs = ConfigBatch.from_configs(space, configs)
        n = len(configs)
        if n == 0:
            return lower_batch(space, configs)
        keys = configs.row_keys()
        with self._lock:
            arena = self._spaces.get(space)
            if arena is None:
                arena = self._spaces[space] = _SpaceArena()
            self._spaces.move_to_end(space)  # LRU order over spaces
            index = arena.index
            pos = np.fromiter(
                (index.get(k, -1) for k in keys), dtype=np.int64, count=n
            )
            miss = np.flatnonzero(pos < 0)
            self.hits += n - len(miss)
            self.misses += len(miss)
            if not len(miss):
                assert arena.batch is not None
                return arena.batch.take(pos)
        # Lower the misses outside the lock (the expensive part).
        seen_arena = arena
        lowered = lower_batch(space, configs.take(miss))
        with self._lock:
            # Re-resolve: a concurrent clear()/eviction may have dropped
            # (or dropped and recreated) the arena captured above, which
            # would invalidate the hit positions resolved against it.
            arena = self._spaces.get(space)
            if arena is not seen_arena:
                if len(miss) < n:
                    # Hit rows evaporated with the old arena; serve this
                    # request uncached rather than guess at stale data.
                    return self._rebuild(space, configs)
                if arena is None:
                    arena = self._spaces[space] = _SpaceArena()
                    self._spaces.move_to_end(space)
            base_len = len(arena.batch) if arena.batch is not None else 0
            fresh_rows: list[int] = []
            for j, i in enumerate(miss):
                key = keys[int(i)]
                at = arena.index.get(key)
                if at is None:  # first sighting (also dedups within the batch)
                    at = base_len + len(fresh_rows)
                    arena.index[key] = at
                    fresh_rows.append(j)
                pos[int(i)] = at
            if fresh_rows:
                insert = (
                    lowered
                    if len(fresh_rows) == len(miss)
                    else lowered.take(np.array(fresh_rows, dtype=np.int64))
                )
                arena.batch = (
                    insert
                    if arena.batch is None
                    else CandidateBatch.concat([arena.batch, insert])
                )
                self._count += len(fresh_rows)
            assert arena.batch is not None
            out = arena.batch.take(pos)
            self._evict()
        return out

    def _rebuild(self, space: ScheduleSpace, configs: ConfigBatch) -> CandidateBatch:
        """Fallback under concurrent clears: plain lowering, no caching."""
        return lower_batch(space, configs)

    def _evict(self) -> None:
        """FIFO-evict whole spaces (oldest first) until under capacity.

        Whole-space granularity keeps arena row indices stable — evicting
        single rows would invalidate every index behind them.
        """
        while self._count > self.capacity and self._spaces:
            _, arena = self._spaces.popitem(last=False)
            self._count -= len(arena.index)
            self.evictions += len(arena.index)


#: The process-wide instance the search policies share.
LOWERED_ROWS = LoweredRowCache()
register_bounded(
    "schedule.memo.LOWERED_ROWS",
    LOWERED_ROWS.clear,
    LOWERED_ROWS.set_capacity,
    stats=LOWERED_ROWS.stats,
)


def lower_batch_memo(
    space: ScheduleSpace, configs: ConfigBatch | list[ScheduleConfig]
) -> CandidateBatch:
    """Module-level convenience over :data:`LOWERED_ROWS`."""
    return LOWERED_ROWS.lower(space, configs)
