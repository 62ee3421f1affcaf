"""Tests for hardware-aware symbols and penalties (repro.core)."""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.penalty import compute_penalties
from repro.core.symbols import extract_symbols_batch
from repro.hardware.device import get_device
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower, random_config
from repro.schedule.space import ScheduleConfig


@pytest.fixture
def gemm_prog():
    space = generate_sketch(ops.matmul(128, 128, 128))
    cfg = ScheduleConfig.from_map(
        {"i": (2, 4, 2, 4, 2), "j": (2, 4, 2, 4, 2), "k": (4, 4, 8)}
    )
    return lower(space, cfg)


def _symbols(prog):
    """The symbols of one program: its one-row batch's columns."""
    return extract_symbols_batch(prog.row)


class TestSymbols:
    def test_symbol_values_match_lowering(self, gemm_prog):
        s = _symbols(gemm_prog)
        assert s.s1_l0_alloc[0] == gemm_prog.reg_elems
        assert s.s2_l0_compute[0] == gemm_prog.thread_compute
        assert s.s3_l1_alloc[0] == gemm_prog.smem_elems
        assert s.s4_l1_para[0] == gemm_prog.threads_per_block
        assert s.s5_l2_traffic[0] == gemm_prog.traffic_elems
        assert s.s6_l2_para[0] == gemm_prog.grid
        assert s.s7_l2_trans[0] == gemm_prog.trans_span
        assert s.s8_l2_compute[0] == gemm_prog.flops

    def test_non_tensorcore_alignment_is_one(self, gemm_prog):
        assert _symbols(gemm_prog).s9_tc_align[0] == 1.0

    def test_tensorcore_alignment_perfect_for_multiples(self):
        wl = ops.matmul(256, 256, 256, dtype="float16")
        space = generate_sketch(wl, tensorcore=True)
        cfg = random_config(space, make_rng(0))
        assert _symbols(lower(space, cfg)).s9_tc_align[0] == 1.0


class TestPenalties:
    def test_paper_formulas(self, gemm_prog):
        dev = get_device("a100")
        s = _symbols(gemm_prog)
        p = compute_penalties(s, dev, gemm_prog.row.dtype_bytes)
        s1, s2 = s.s1_l0_alloc[0], s.s2_l0_compute[0]
        # P_l0_m = min(m_l0/S1, 1)
        assert p.p_l0_m[0] == pytest.approx(min(255 / s1, 1.0))
        # P_l0_c = 1 + S2/S1
        assert p.p_l0_c[0] == pytest.approx(1 + s2 / s1)
        # warp alignment: 16 threads -> sch_l1 = 1 -> 1/(1*4) = 0.25
        assert p.p_l1_c[0] == pytest.approx(1 / 4)
        # alpha: 16/(1*32) = 0.5
        assert p.alpha_l1[0] == pytest.approx(0.5)
        # grid 4 on 108 SMs: 4 / 108
        assert p.p_l2_c[0] == pytest.approx(4 / 108)
        # span 32 == transaction length -> 1.0
        assert p.p_l2_m[0] == pytest.approx(1.0)

    def test_density_bounded(self, gemm_prog):
        dev = get_device("a100")
        p = compute_penalties(_symbols(gemm_prog), dev, gemm_prog.row.dtype_bytes)
        assert 0.0 < p.density()[0] <= 1.0

    def test_full_warp_gets_full_alpha(self):
        space = generate_sketch(ops.matmul(128, 128, 128))
        cfg = ScheduleConfig.from_map(
            {"i": (1, 8, 1, 4, 4), "j": (4, 4, 1, 2, 4), "k": (4, 4, 8)}
        )
        prog = lower(space, cfg)
        s = _symbols(prog)
        p = compute_penalties(s, get_device("a100"), prog.row.dtype_bytes)
        assert s.s4_l1_para[0] == 32
        assert p.alpha_l1[0] == pytest.approx(1.0)

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_penalty_ranges(self, seed):
        """Property: all penalty terms lie in (0, 1] except P_l0_c >= 1."""
        wl = ops.conv2d(1, 32, 28, 28, 64, 3)
        space = generate_sketch(wl)
        cfg = random_config(space, make_rng(seed))
        prog = lower(space, cfg)
        p = compute_penalties(_symbols(prog), get_device("t4"), prog.row.dtype_bytes)
        for value in (p.p_l0_m, p.p_l1_m, p.p_l1_c, p.alpha_l1, p.p_l2_c, p.p_l2_m):
            assert 0.0 < value[0] <= 1.0
        assert p.p_l0_c[0] >= 1.0

    def test_memory_product_uses_capacity_terms(self, gemm_prog):
        p = compute_penalties(_symbols(gemm_prog), get_device("a100"), gemm_prog.row.dtype_bytes)
        assert p.memory_product()[0] == pytest.approx((p.p_l0_m * p.p_l1_m * p.p_l2_m)[0])
