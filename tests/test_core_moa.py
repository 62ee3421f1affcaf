"""Tests for Momentum online Adaptation (repro.core.moa)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.moa import MomentumAdapter
from repro.errors import CostModelError


class FakeModel:
    """Minimal parameter container implementing the MoA protocol."""

    def __init__(self, w):
        self.params = {"w": np.array(w, dtype=float)}

    def get_params(self):
        return {k: v.copy() for k, v in self.params.items()}

    def set_params(self, params):
        self.params = {k: v.copy() for k, v in params.items()}


class TestMomentumAdapter:
    def test_load_into_copies_siamese_weights(self):
        adapter = MomentumAdapter({"w": np.ones(3)}, momentum=0.99)
        target = FakeModel(np.zeros(3))
        adapter.load_into(target)
        assert np.allclose(target.params["w"], 1.0)

    def test_momentum_update_formula(self):
        adapter = MomentumAdapter({"w": np.zeros(2)}, momentum=0.9)
        target = FakeModel(np.array([1.0, 2.0]))
        adapter.update_from(target)
        # phi_s = 0.9*0 + 0.1*[1,2]
        assert np.allclose(adapter.siamese_params["w"], [0.1, 0.2])

    def test_update_does_not_alias_target(self):
        target = FakeModel(np.array([1.0]))
        adapter = MomentumAdapter(target.get_params())
        adapter.update_from(target)
        target.params["w"][0] = 99.0
        assert adapter.siamese_params["w"][0] != 99.0

    def test_repeated_updates_converge_to_target(self):
        adapter = MomentumAdapter({"w": np.zeros(1)}, momentum=0.9)
        target = FakeModel(np.array([1.0]))
        for _ in range(200):
            adapter.update_from(target)
        assert adapter.siamese_params["w"][0] == pytest.approx(1.0, abs=1e-6)

    def test_high_momentum_moves_slowly(self):
        fast = MomentumAdapter({"w": np.zeros(1)}, momentum=0.5)
        slow = MomentumAdapter({"w": np.zeros(1)}, momentum=0.99)
        target = FakeModel(np.array([1.0]))
        fast.update_from(target)
        slow.update_from(target)
        assert fast.siamese_params["w"][0] > slow.siamese_params["w"][0]

    def test_mismatched_names_raise(self):
        adapter = MomentumAdapter({"w": np.zeros(1)})
        bad = FakeModel(np.zeros(1))
        bad.params = {"v": np.zeros(1)}
        with pytest.raises(CostModelError):
            adapter.update_from(bad)

    def test_mismatched_shapes_raise(self):
        adapter = MomentumAdapter({"w": np.zeros(2)})
        with pytest.raises(CostModelError):
            adapter.update_from(FakeModel(np.zeros(3)))

    def test_invalid_momentum_rejected(self):
        with pytest.raises(CostModelError):
            MomentumAdapter({"w": np.zeros(1)}, momentum=1.0)

    def test_drift_metric(self):
        adapter = MomentumAdapter({"w": np.zeros(2)}, momentum=0.0)
        adapter.update_from(FakeModel(np.array([3.0, 4.0])))
        assert adapter.drift({"w": np.zeros(2)}) == pytest.approx(5.0)
