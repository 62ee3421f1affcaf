"""Persistent cross-round lowering memo: (space, config row) -> lowered row.

Every verify round re-lowers its drafted set, and draft sets overlap
across rounds — GA elites, warm-start seeds and mutation neighborhoods
recur by construction (the same observation behind parakeet-style
``_lowered_functions`` memos, made array-native here).
:data:`LOWERED_ROWS` is a :class:`~repro.cache.RowCache` partitioned by
schedule space whose chunks are the
:class:`~repro.schedule.batch.CandidateBatch` each miss set lowered to,
so a warm round lowers only the rows no earlier round saw.

Row identity is :meth:`ConfigBatch.row_keys` — the raw factor/annotation
bytes of the config row, the one candidate identity the feature cache
and measurement selection share — no string keys, no config
materialization.
"""

from __future__ import annotations

from repro.cache import RowCache, register_cache
from repro.schedule.batch import CandidateBatch, ConfigBatch, lower_batch
from repro.schedule.space import ScheduleConfig, ScheduleSpace

#: The process-wide instance the search policies share.
LOWERED_ROWS = RowCache(CandidateBatch.take, CandidateBatch.concat)
register_cache(
    "schedule.memo.LOWERED_ROWS", LOWERED_ROWS.clear, stats=LOWERED_ROWS.stats
)


def lower_batch_memo(
    space: ScheduleSpace, configs: ConfigBatch | list[ScheduleConfig]
) -> CandidateBatch:
    """Memoized :func:`~repro.schedule.batch.lower_batch`.

    Returns the same arrays ``lower_batch`` would (row for row, in
    request order); only rows never seen before are lowered — and
    validated: stored rows passed validation when first lowered.
    """
    if not isinstance(configs, ConfigBatch):
        configs = ConfigBatch.from_configs(space, configs)
    return LOWERED_ROWS.fetch(
        space, configs.row_keys(), lambda miss: lower_batch(space, configs.take(miss))
    )
