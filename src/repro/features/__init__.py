"""Feature extraction for learned cost models.

Three views of a scheduled program, mirroring the paper's comparison:

* :mod:`repro.features.statement`  — aggregated statement-level features
  (Ansor / TenSetMLP style; the paper's "naive statement features").
* :mod:`repro.features.dataflow`   — temporal dataflow features: one
  23-dimensional embedding per data-movement block of the multi-tiling
  pattern, padded to a (10, 23) sequence (paper Figure 4; PaCM's key
  input).  Element-wise programs are zero-padded, as in the paper.
* :mod:`repro.features.primitives` — schedule-primitive sequences with
  one-hot factor buckets (TLP style; intentionally sparse, which is why
  TLP needs large pre-training corpora — Section 2.3(2)).

Each view has a batched entry point (``*_batch``) consuming a
:class:`~repro.schedule.batch.CandidateBatch` and returning the stacked
feature array in one shot; the per-program functions are thin wrappers.
Rows are memoized in the shared :data:`repro.features.cache.FEATURE_ROWS`
store, keyed on (schedule space, feature kind, config row).
"""

from repro.features.cache import FEATURE_ROWS
from repro.features.statement import (
    STATEMENT_DIM,
    statement_features,
    statement_matrix_batch,
)
from repro.features.dataflow import (
    DATAFLOW_BLOCKS,
    DATAFLOW_DIM,
    dataflow_features,
    dataflow_tensor_batch,
)
from repro.features.primitives import (
    PRIMITIVE_DIM,
    PRIMITIVE_SEQ,
    primitive_features,
    primitive_tensor_batch,
)

__all__ = [
    "STATEMENT_DIM",
    "statement_features",
    "statement_matrix_batch",
    "DATAFLOW_BLOCKS",
    "DATAFLOW_DIM",
    "dataflow_features",
    "dataflow_tensor_batch",
    "PRIMITIVE_DIM",
    "PRIMITIVE_SEQ",
    "primitive_features",
    "primitive_tensor_batch",
    "FEATURE_ROWS",
]
