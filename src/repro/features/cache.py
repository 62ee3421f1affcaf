"""The feature-row cache: (schedule space, feature kind, config row) -> row.

All feature kinds (statement / dataflow / primitives) share
:data:`FEATURE_ROWS`, a :class:`~repro.cache.RowCache` partitioned by
``(space, kind)`` whose chunks are the arrays the encoders return; rows
are keyed on ``ConfigBatch.row_keys()`` bytes, the identity the
lowering memo uses too.  The batch encoders fetch through it, so
recurring candidates (GA elites, warm-start seeds) skip re-encoding
across tuning rounds; the service drops it between jobs through
:func:`repro.cache.clear_caches`.
"""

from __future__ import annotations

import numpy as np

from repro.cache import RowCache, register_cache

#: The process-wide instance every batch feature encoder shares.
FEATURE_ROWS = RowCache(lambda rows, idx: rows[idx], np.concatenate)
register_cache(
    "features.cache.FEATURE_ROWS", FEATURE_ROWS.clear, stats=FEATURE_ROWS.stats
)
