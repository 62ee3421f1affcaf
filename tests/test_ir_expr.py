"""Tests for loop dims and access patterns (repro.ir.expr)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.ir.expr import AccessPattern, LoopDim


def test_loopdim_rejects_nonpositive_extent():
    with pytest.raises(WorkloadError):
        LoopDim("i", 0)
    with pytest.raises(WorkloadError):
        LoopDim("i", -3)


def test_loopdim_str():
    assert str(LoopDim("i", 16)) == "i[16]"


class TestAccessPattern:
    def _matmul_a(self):
        return AccessPattern("A", ((("i", 1),), (("k", 1),)))

    def test_loops(self):
        assert self._matmul_a().loops() == {"i", "k"}

    def test_footprint_simple_tile(self):
        a = self._matmul_a()
        assert a.footprint({"i": 8, "k": 4}) == 32

    def test_footprint_missing_loop_counts_one(self):
        a = self._matmul_a()
        assert a.footprint({"i": 8}) == 8

    def test_footprint_full_extent(self):
        a = self._matmul_a()
        assert a.footprint({"i": 128, "k": 64}) == 128 * 64

    def test_conv_halo_footprint(self):
        # I[p*2 + r] with tile p=4, r=3: span = 2*(4-1) + 1*(3-1) + 1 = 9
        acc = AccessPattern("I", ((("p", 2), ("r", 1)),))
        assert acc.footprint({"p": 4, "r": 3}) == 9

    def test_innermost_span(self):
        a = self._matmul_a()
        assert a.innermost_span({"i": 8, "k": 4}) == 4

    def test_reuse_counts_points_per_element(self):
        # B[k, j] inside an (i, j, k) tile: each element read i times.
        b = AccessPattern("B", ((("k", 1),), (("j", 1),)))
        tile = {"i": 4, "j": 8, "k": 2}
        assert b.reuse(tile, {"i": 1, "j": 1, "k": 1}) == pytest.approx(4.0)


@given(
    tile_i=st.integers(min_value=1, max_value=64),
    tile_k=st.integers(min_value=1, max_value=64),
)
def test_footprint_monotone_in_tile(tile_i, tile_k):
    """Property: growing a tile never shrinks the footprint."""
    a = AccessPattern("A", ((("i", 1),), (("k", 1),)))
    base = a.footprint({"i": tile_i, "k": tile_k})
    grown = a.footprint({"i": tile_i + 1, "k": tile_k})
    assert grown >= base


@given(
    stride=st.integers(min_value=1, max_value=4),
    tile=st.integers(min_value=1, max_value=32),
    win=st.integers(min_value=1, max_value=7),
)
def test_conv_footprint_formula(stride, tile, win):
    """Property: compound-index span matches the closed form."""
    acc = AccessPattern("I", ((("p", stride), ("r", 1)),))
    expected = stride * (tile - 1) + (win - 1) + 1
    assert acc.footprint({"p": tile, "r": win}) == expected
