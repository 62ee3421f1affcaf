"""Tests for the three feature views (repro.features)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import (
    DATAFLOW_BLOCKS,
    DATAFLOW_DIM,
    PRIMITIVE_DIM,
    PRIMITIVE_SEQ,
    STATEMENT_DIM,
    dataflow_tensor_batch,
    primitive_features,
    statement_matrix_batch,
)
from repro.features.primitives import sparsity
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower, lower_batch, random_config


def _progs(wl, n=20, seed=0):
    space = generate_sketch(wl)
    rng = make_rng(seed)
    return [lower(space, random_config(space, rng)) for _ in range(n)]


class TestStatementFeatures:
    def test_shape_and_dtype(self, matmul_space, rng):
        prog = lower(matmul_space, random_config(matmul_space, rng))
        f = statement_matrix_batch(prog.row)[0]
        assert f.shape == (STATEMENT_DIM,)
        assert f.dtype == np.float64

    def test_finite_and_bounded(self):
        for prog in _progs(ops.conv2d(1, 64, 56, 56, 128, 3)):
            f = statement_matrix_batch(prog.row)[0]
            assert np.all(np.isfinite(f))
            assert np.all(np.abs(f) < 10)

    def test_distinct_schedules_distinct_features(self):
        progs = _progs(ops.matmul(256, 256, 256), n=30)
        feats = {statement_matrix_batch(p.row)[0].tobytes() for p in progs}
        assert len(feats) > len(progs) * 0.8

    def test_warp_fraction_feature(self):
        """Full-warp thread counts score 1.0 on the warp-occupancy dim."""
        from repro.schedule.space import ScheduleConfig

        space = generate_sketch(ops.matmul(128, 128, 128))
        cfg = ScheduleConfig.from_map(
            {"i": (1, 8, 1, 4, 4), "j": (4, 4, 1, 2, 4), "k": (4, 4, 8)}
        )
        f = statement_matrix_batch(lower(space, cfg).row)[0]
        assert 1.0 in f  # 32 threads -> exactly one full warp

    def test_elementwise_supported(self):
        prog = _progs(ops.elementwise((512, 512)), n=1)[0]
        assert statement_matrix_batch(prog.row)[0].shape == (STATEMENT_DIM,)


class TestDataflowFeatures:
    def test_shape_matches_paper(self, matmul_space, rng):
        """Figure 4: Dim(10, 23)."""
        prog = lower(matmul_space, random_config(matmul_space, rng))
        assert dataflow_tensor_batch(prog.row)[0].shape == (DATAFLOW_BLOCKS, DATAFLOW_DIM)
        assert (DATAFLOW_BLOCKS, DATAFLOW_DIM) == (10, 23)

    def test_elementwise_zero_padded(self):
        prog = _progs(ops.elementwise((256, 256)), n=1)[0]
        f = dataflow_tensor_batch(prog.row)[0]
        # one stream block, rest zero padding (paper Section 4.2)
        assert np.any(f[0] != 0)
        assert np.all(f[2:] == 0)

    def test_block_rows_track_block_count(self, matmul_space, rng):
        prog = lower(matmul_space, random_config(matmul_space, rng))
        f = dataflow_tensor_batch(prog.row)[0]
        n_blocks = len(prog.blocks)
        assert np.all(f[n_blocks:] == 0)
        for i in range(n_blocks):
            assert np.any(f[i] != 0)

    def test_values_tied_to_tiles(self):
        """Different tile factors virtually always change the features."""
        progs = _progs(ops.matmul(512, 512, 512), n=30)
        feats = {dataflow_tensor_batch(p.row)[0].tobytes() for p in progs}
        assert len(feats) == len({p.config.key for p in progs})

    def test_tensorcore_fragment_block_encoded(self):
        wl = ops.matmul(256, 256, 256, dtype="float16")
        space = generate_sketch(wl, tensorcore=True)
        prog = lower(space, random_config(space, make_rng(0)))
        f = dataflow_tensor_batch(prog.row)[0]
        kinds_onehot = f[:, 1:7]
        assert kinds_onehot[:, 2].sum() == 1  # exactly one 'fragment' row


class TestPrimitiveFeatures:
    def test_shape(self, matmul_space, rng):
        prog = lower(matmul_space, random_config(matmul_space, rng))
        assert primitive_features(prog).shape == (PRIMITIVE_SEQ, PRIMITIVE_DIM)

    def test_one_hot_rows(self, matmul_space, rng):
        prog = lower(matmul_space, random_config(matmul_space, rng))
        f = primitive_features(prog)
        assert set(np.unique(f)) <= {0.0, 1.0}

    def test_sparsity_is_low(self):
        """Paper Section 2.3: only a small share of TLP feature values
        varies between schedules of the same workload."""
        space = generate_sketch(ops.matmul(512, 512, 512))
        rng = make_rng(0)
        batch = lower_batch(space, [random_config(space, rng) for _ in range(60)])
        assert sparsity(batch) < 0.35

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_deterministic(self, seed):
        wl = ops.matmul(128, 128, 128)
        space = generate_sketch(wl)
        cfg = random_config(space, make_rng(seed))
        a = primitive_features(lower(space, cfg))
        b = primitive_features(lower(space, cfg))
        assert np.array_equal(a, b)
