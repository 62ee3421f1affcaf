"""Schedule-primitive sequence features (TLP style).

TLP encodes the *schedule primitives* (split / reorder / annotate)
rather than the lowered program, using one-hot encodings of factor
choices.  The paper observes this makes feature vectors extremely
sparse — for a GEMM only ~1.4% of values differ between programs —
which hurts training on small datasets (Section 2.3(2)).

We reproduce that structure: one token per primitive, where each split
factor is one-hot bucketed by its log2 value.  Token layout
(``PRIMITIVE_DIM = 4 + 5 * 12 = 64``):

* 4 dims: primitive type one-hot (split-spatial, split-reduction,
  annotation, splitK),
* 5 x 12 dims: factor slots, each a 12-way one-hot over log2 buckets
  (0..2048+); annotation tokens use slot 0 for unroll and slot 1 for
  vector.

Sequences are padded to ``PRIMITIVE_SEQ = 12`` tokens.
"""

from __future__ import annotations

import math

import numpy as np

from repro.schedule.batch import CandidateBatch, space_plan
from repro.schedule.lower import LoweredProgram

PRIMITIVE_SEQ = 12
_N_TYPES = 4
_N_SLOTS = 5
_N_BUCKETS = 12
PRIMITIVE_DIM = _N_TYPES + _N_SLOTS * _N_BUCKETS


def _bucket(value: int) -> int:
    """log2 bucket of a factor value, clamped to the one-hot range."""
    if value < 1:
        return 0
    return min(_N_BUCKETS - 1, int(math.log2(value)))


def _token(type_idx: int, factors: tuple[int, ...]) -> list[float]:
    vec = [0.0] * PRIMITIVE_DIM
    vec[type_idx] = 1.0
    for slot, f in enumerate(factors[:_N_SLOTS]):
        vec[_N_TYPES + slot * _N_BUCKETS + _bucket(f)] = 1.0
    return vec


def primitive_features(prog: LoweredProgram) -> np.ndarray:
    """Primitive-sequence features: shape ``(PRIMITIVE_SEQ, PRIMITIVE_DIM)``."""
    wl = prog.workload
    spatial = {d.name for d in wl.spatial}
    tokens: list[list[float]] = []
    for axis, factors in prog.config.tiles:
        type_idx = 0 if axis in spatial else 1
        tokens.append(_token(type_idx, factors))
    tokens.append(_token(2, (prog.unroll, prog.vector)))
    if prog.splitk > 1:
        tokens.append(_token(3, (prog.splitk,)))
    tokens = tokens[:PRIMITIVE_SEQ]
    pad = [0.0] * PRIMITIVE_DIM
    tokens += [pad] * (PRIMITIVE_SEQ - len(tokens))
    return np.asarray(tokens, dtype=np.float64)


def _bucket_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_bucket` (log2 bucket, clamped)."""
    safe = np.maximum(values, 1)
    buckets = np.floor(np.log2(safe)).astype(np.int64)
    buckets = np.minimum(buckets, _N_BUCKETS - 1)
    return np.where(values < 1, 0, buckets)


def primitive_tensor_batch(batch: CandidateBatch) -> np.ndarray:
    """Primitive sequences of a batch: ``(N, PRIMITIVE_SEQ, PRIMITIVE_DIM)``.

    Reads the batch's :class:`~repro.schedule.batch.ConfigBatch`; the
    one-program :func:`primitive_features` is the reference it is
    tested against.
    """
    cb = batch.configs
    plan = space_plan(cb.space)
    n = len(batch)
    rows = np.arange(n)
    out = np.zeros((n, PRIMITIVE_SEQ, PRIMITIVE_DIM), dtype=np.float64)
    token = 0
    # one token per axis split, in config.tiles (sorted-name) order
    for a in plan.sorted_axis_order:
        if token >= PRIMITIVE_SEQ:
            break
        type_idx = 0 if a < plan.n_spatial else 1
        out[:, token, type_idx] = 1.0
        parts = int(plan.parts[a])
        for slot in range(min(parts, _N_SLOTS)):
            bucket = _bucket_array(cb.factors[:, a, slot])
            out[rows, token, _N_TYPES + slot * _N_BUCKETS + bucket] = 1.0
        token += 1
    # annotation token: slot 0 = unroll bucket, slot 1 = vector bucket
    if token < PRIMITIVE_SEQ:
        out[:, token, 2] = 1.0
        out[rows, token, _N_TYPES + _bucket_array(cb.unroll)] = 1.0
        out[rows, token, _N_TYPES + _N_BUCKETS + _bucket_array(cb.vector)] = 1.0
        token += 1
    # splitK token, only for candidates that actually split
    if token < PRIMITIVE_SEQ:
        has = cb.splitk > 1
        out[has, token, 3] = 1.0
        sk_rows = rows[has]
        out[sk_rows, token, _N_TYPES + _bucket_array(cb.splitk[has])] = 1.0
    return out


def sparsity(batch: CandidateBatch) -> float:
    """Fraction of feature positions that differ across a batch.

    Reproduces the paper's GEMM observation (~1.4% of TLP feature values
    vary between schedules of the same workload).
    """
    tokens = primitive_tensor_batch(batch)
    varying = (tokens.std(axis=0) > 0).sum()
    return float(varying) / float(tokens[0].size)
