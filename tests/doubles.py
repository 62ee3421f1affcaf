"""Test doubles shared by several test modules."""

from __future__ import annotations

import numpy as np

from repro.costmodel.base import CostModel
from repro.rng import make_rng
from repro.schedule.batch import CandidateBatch


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
