"""Statement-level features (Ansor / TenSetMLP style).

Ansor extracts 164 hand-engineered values per innermost statement; this
reproduction uses a compact 40-dimensional aggregate with the same
information classes: arithmetic counts, buffer-access statistics,
parallelism, and annotations.

Deliberately *coarser* than the dataflow view (matching the paper's
finding that statement features alone under-describe program behaviour,
Section 4.2): per-thread register structure (accumulator tile vs
operand tiles, vthread split) is only visible as the aggregate register
count, so instruction-level-parallelism effects are not separable from
these features alone.

Extraction is batched: :func:`statement_matrix_batch` encodes a whole
:class:`~repro.schedule.batch.CandidateBatch` as one ``(N, 40)`` array.
"""

from __future__ import annotations

import numpy as np

from repro.schedule.batch import BK_LOAD, CandidateBatch, TAG_ORDER

STATEMENT_DIM = 40

_UNROLLS = (0, 16, 64, 512)
_VECTORS = (1, 2, 4)
_TAGS = TAG_ORDER


def _lg(x: np.ndarray) -> np.ndarray:
    """log2 scaling, normalized to roughly [0, 2.5] (vectorized)."""
    return np.log2(1.0 + np.maximum(0.0, x)) / 16.0


def statement_matrix_batch(batch: CandidateBatch) -> np.ndarray:
    """Batch statement features: shape ``(N, STATEMENT_DIM)``."""
    n = len(batch)
    threads = batch.threads
    warps = -(-threads // 32)  # warp size is universal across CUDA GPUs
    feats = np.zeros((n, STATEMENT_DIM), dtype=np.float64)
    feats[:, 0] = _lg(batch.flops)
    feats[:, 1] = _lg(batch.traffic_elems * batch.dtype_bytes)
    feats[:, 2] = _lg(batch.output_elems)
    feats[:, 3] = _lg(batch.arith_intensity)
    feats[:, 4] = _lg(threads)
    feats[:, 5] = _lg(batch.grid)
    feats[:, 6] = _lg(batch.reg_elems)
    feats[:, 7] = _lg(batch.smem_bytes)
    feats[:, 8] = _lg(batch.trans_span)
    feats[:, 9] = _lg(batch.splitk)
    feats[:, 10] = batch.dtype_bytes / 4.0
    feats[:, 11] = batch.n_fused / 4.0
    feats[:, 12] = batch.tensorcore
    feats[:, 13] = threads / (warps * 32.0)  # warp-occupancy fraction
    feats[:, 14] = (threads % 32) / 32.0  # partial-warp remainder
    feats[:, 15] = _lg(warps)
    feats[:, 16] = _lg(batch.n_reduction)
    col = 17
    # annotation one-hots
    for u in _UNROLLS:
        feats[:, col] = batch.unroll == u
        col += 1
    for v in _VECTORS:
        feats[:, col] = batch.vector == v
        col += 1
    # operator-class one-hot
    for t in range(len(_TAGS)):
        feats[:, col] = batch.tag_code == t
        col += 1
    # per-input-buffer access statistics (up to 3 buffers, 3 values each)
    loads = batch.blocks.kind == BK_LOAD
    if loads.shape[1]:
        rank = loads.cumsum(axis=1)
        rows = np.arange(n)
        for k in range(3):
            sel = loads & (rank == k + 1)
            has = sel.any(axis=1)
            idx = np.argmax(sel, axis=1)
            feats[has, col] = _lg(batch.blocks.traffic[rows, idx])[has]
            feats[has, col + 1] = _lg(batch.blocks.alloc[rows, idx])[has]
            feats[has, col + 2] = _lg(batch.blocks.span[rows, idx])[has]
            col += 3
    return feats  # remaining columns stay zero-padded
