"""Temporal dataflow features — PaCM's key input (paper Section 4.2).

Every data-movement block of the multi-tiling pattern (init, global->
shared loads, shared->fragment staging, compute, store) is encoded as a
23-dimensional vector:

====== ======================================================
index  content
====== ======================================================
0      compute: log FLOPs attributed to the block
1-6    block kind one-hot (init/load/fragment/compute/store/stream)
7-10   source memory level one-hot (L0/L1/L2/fragment)
11-14  destination memory level one-hot
15     log traffic volume (bytes across the boundary)
16     log destination allocation size
17     log data reuse at the destination
18     log innermost contiguous span
19     transaction-alignment fraction (span mod 32)
20     vectorization width (log)
21     element size relative to fp32
22     alloc size: log destination allocation in bytes
====== ======================================================

Matching Figure 4's ``Dim(10, 23)``, programs are padded to
``DATAFLOW_BLOCKS = 10`` blocks; element-wise operators (which have no
multi-tiling pattern) carry a single ``stream`` block and are otherwise
zero-padded — "requiring no additional computational overhead".

Every value is tied to its program's tile factors, so two different
schedules virtually never produce identical sequences: the feature
diversity the paper contrasts with TLP's sparse one-hots.

Encoding is batched: :func:`dataflow_tensor_batch` turns the packed
block arrays of a :class:`~repro.schedule.batch.CandidateBatch` into
one ``(N, 10, 23)`` tensor.
"""

from __future__ import annotations

import numpy as np

from repro.schedule.batch import BLOCK_KINDS, CandidateBatch

DATAFLOW_BLOCKS = 10
DATAFLOW_DIM = 23

_KINDS = BLOCK_KINDS  # ("init", "load", "fragment", "compute", "store", "stream")
_LEVELS = (0, 1, 2, 3)  # L0 regs, L1 shared, L2 global, fragment


def _lg(x: np.ndarray) -> np.ndarray:
    return np.log2(1.0 + np.maximum(0.0, x)) / 16.0


def dataflow_tensor_batch(batch: CandidateBatch) -> np.ndarray:
    """Batch dataflow sequences: shape ``(N, DATAFLOW_BLOCKS, DATAFLOW_DIM)``."""
    bl = batch.blocks
    n, b_total = bl.kind.shape
    b = min(b_total, DATAFLOW_BLOCKS)
    out = np.zeros((n, DATAFLOW_BLOCKS, DATAFLOW_DIM), dtype=np.float64)
    kind = bl.kind[:, :b]
    enc = out[:, :b, :]
    enc[..., 0] = _lg(bl.compute[:, :b])
    for code in range(len(_KINDS)):
        enc[..., 1 + code] = kind == code
    for i, level in enumerate(_LEVELS):
        enc[..., 7 + i] = bl.src[:, :b] == level
        enc[..., 11 + i] = bl.dst[:, :b] == level
    enc[..., 15] = _lg(bl.traffic[:, :b] * bl.dtype_bytes[:, :b])
    enc[..., 16] = _lg(bl.alloc[:, :b])
    enc[..., 17] = _lg(bl.reuse[:, :b])
    enc[..., 18] = _lg(bl.span[:, :b])
    enc[..., 19] = (bl.span[:, :b] % 32) / 32.0
    enc[..., 20] = _lg(bl.vector[:, :b])
    enc[..., 21] = bl.dtype_bytes[:, :b] / 4.0
    enc[..., 22] = _lg(bl.alloc[:, :b] * bl.dtype_bytes[:, :b])
    return out
