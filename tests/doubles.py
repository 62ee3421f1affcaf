"""Test doubles shared by several test modules."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.costmodel.base import CostModel
from repro.rng import make_rng
from repro.schedule.batch import CandidateBatch
from repro.timemodel import CostTable, SimClock


class RandomModel(CostModel):
    """Scores at random: a cost model that learns nothing and has no state."""

    kind = "random"
    feature_kind = "statement"

    def __init__(self, seed: int = 0) -> None:
        self._rng = make_rng(seed)

    def featurize_batch(self, batch: CandidateBatch) -> np.ndarray:
        return np.zeros((len(batch), 0))  # reads nothing

    def predict_batch(self, batch: CandidateBatch) -> np.ndarray:
        return self._rng.random(len(batch))

    def fit(self, features, latencies, group_keys, train=None, rng=None) -> None:
        pass  # nothing to learn


def random_model_clock() -> SimClock:
    """A clock whose cost table also prices :class:`RandomModel`'s kind:
    inference nearly free, training free."""
    costs = CostTable()
    return SimClock(
        replace(
            costs,
            model_infer={**costs.model_infer, RandomModel.kind: 1.0e-6},
            model_train={**costs.model_train, RandomModel.kind: 0.0},
        )
    )
