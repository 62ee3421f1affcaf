"""Tests for lowering (repro.schedule.lower): tile structure + blocks.

The matmul checks mirror the paper's Figure 3 worked example.
"""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower, random_config
from repro.schedule.space import ScheduleConfig


def gemm_config(i=(2, 4, 2, 4, 2), j=(2, 4, 2, 4, 2), k=(4, 4, 8)):
    return ScheduleConfig.from_map({"i": i, "j": j, "k": k}, unroll=16, vector=2)


@pytest.fixture
def gemm_space():
    return generate_sketch(ops.matmul(128, 128, 128))


class TestFigure3Gemm:
    """Symbols of the paper's GEMM example, with concrete factors."""

    def test_grid_and_threads(self, gemm_space):
        prog = lower(gemm_space, gemm_config())
        assert prog.n_blocks == 2 * 2  # I0 * J0
        assert prog.threads_per_block == 4 * 4  # I1 * J1
        assert prog.vthreads == 2 * 2  # I2 * J2

    def test_register_tiles(self, gemm_space):
        prog = lower(gemm_space, gemm_config())
        # L0_C = (I2 I3 I4) * (J2 J3 J4) = 16 * 16; L0_A = 16; L0_B = 16
        assert prog.acc_regs == 256
        assert prog.reg_elems == 256 + 16 + 16  # S1

    def test_thread_compute_s2(self, gemm_space):
        prog = lower(gemm_space, gemm_config())
        # S2 = (I2..I4)(J2..J4)(K0 K1 K2) = 16 * 16 * 128
        assert prog.thread_compute == 256 * 128

    def test_shared_tiles_s3(self, gemm_space):
        prog = lower(gemm_space, gemm_config())
        # L1_A = (I1..I4) * (K1 K2) = 64 * 32; same for B
        assert prog.smem_elems == 2 * 64 * 32

    def test_global_traffic_s5(self, gemm_space):
        prog = lower(gemm_space, gemm_config())
        # A: full I (128) x full K (128) x J0 (2) = 32768, symmetric for B,
        # plus output stores 128*128.
        expected = 128 * 128 * 2 * 2 + 128 * 128
        assert prog.traffic_elems == expected

    def test_transaction_span_s7(self, gemm_space):
        prog = lower(gemm_space, gemm_config())
        # A innermost dim is k: span = K1*K2 = 32; B innermost is j: 64.
        assert prog.trans_span == 32

    def test_flops_s8(self, gemm_space):
        prog = lower(gemm_space, gemm_config())
        assert prog.flops == 2 * 128**3


class TestLoweringInvariants:
    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_structure_consistency(self, seed):
        wl = ops.matmul(256, 128, 64)
        space = generate_sketch(wl)
        cfg = random_config(space, make_rng(seed))
        prog = lower(space, cfg)
        tile = cfg.tile_map
        assert prog.n_blocks == tile["i"][0] * tile["j"][0]
        assert prog.threads_per_block == tile["i"][1] * tile["j"][1]
        assert prog.flops == wl.flops
        # Register tile never exceeds the whole block tile.
        assert prog.acc_regs * prog.threads_per_block >= prog.vthreads

    @given(seed=st.integers(min_value=0, max_value=60))
    @settings(max_examples=30, deadline=None)
    def test_traffic_at_least_compulsory(self, seed):
        """Property: modelled traffic >= compulsory (footprint) traffic."""
        wl = ops.conv2d(1, 16, 28, 28, 32, 3)
        space = generate_sketch(wl)
        cfg = random_config(space, make_rng(seed))
        prog = lower(space, cfg)
        compulsory = wl.input_bytes / wl.dtype_bytes + wl.output_elems
        assert prog.traffic_elems >= compulsory * 0.999


class TestDataflowBlocks:
    def test_block_sequence_matches_multitiling_pattern(self, gemm_space):
        prog = lower(gemm_space, gemm_config())
        kinds = [b.kind for b in prog.blocks]
        # Figure 4: init, A load, B load, compute, store.
        assert kinds == ["init", "load", "load", "compute", "store"]

    def test_load_block_levels(self, gemm_space):
        prog = lower(gemm_space, gemm_config())
        loads = [b for b in prog.blocks if b.kind == "load"]
        assert all(b.src_level == 2 and b.dst_level == 1 for b in loads)

    def test_compute_block_carries_flops(self, gemm_space):
        prog = lower(gemm_space, gemm_config())
        compute = next(b for b in prog.blocks if b.kind == "compute")
        assert compute.compute_ops == prog.flops

    def test_shared_reuse_positive(self, gemm_space):
        prog = lower(gemm_space, gemm_config())
        loads = [b for b in prog.blocks if b.kind == "load"]
        assert all(b.reuse >= 1.0 for b in loads)

    def test_tensorcore_adds_fragment_block(self):
        wl = ops.matmul(256, 256, 256, dtype="float16")
        space = generate_sketch(wl, tensorcore=True)
        cfg = random_config(space, make_rng(0))
        prog = lower(space, cfg)
        assert any(b.kind == "fragment" for b in prog.blocks)

    def test_elementwise_single_stream_block(self):
        wl = ops.elementwise((512, 512))
        space = generate_sketch(wl)
        cfg = random_config(space, make_rng(0))
        prog = lower(space, cfg)
        assert [b.kind for b in prog.blocks] == ["stream"]
        assert prog.smem_elems == 0


class TestSplitK:
    def test_splitk_multiplies_grid_and_stores(self):
        wl = ops.matmul(64, 64, 4096)
        space = generate_sketch(wl, allow_splitk=True)
        base = random_config(space, make_rng(2)).with_annotations(splitk=1)
        split = base.with_annotations(splitk=4)
        p1, p4 = lower(space, base), lower(space, split)
        assert p4.n_blocks == 4 * p1.n_blocks
        # store traffic scales with splitk
        assert p4.traffic_elems > p1.traffic_elems
