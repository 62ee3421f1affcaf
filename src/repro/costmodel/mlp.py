"""TenSetMLP: multi-layer perceptron over statement features.

TenSet's learned model (and Ansor's strongest configuration): a small
MLP on hand-engineered statement features.  Cheap to train and run —
its ceiling is set by the features (paper Section 4.2: single-statement
feature designs "fail to adequately characterize the behaviors of
tensor programs").
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.base import NNCostModel
from repro.features.statement import STATEMENT_DIM, statement_matrix_batch
from repro.nn.layers import Linear, ReLU, Sequential
from repro.schedule.batch import CandidateBatch
from repro.schedule.lower import LoweredProgram


class TenSetMLP(NNCostModel):
    """MLP cost model (statement features -> score)."""

    kind = "mlp"
    feature_kind = "statement"

    def __init__(self, hidden: int = 64, seed: int = 0) -> None:
        self.hidden = hidden
        self.seed = seed
        self.net = Sequential(
            Linear(STATEMENT_DIM, hidden, seed=seed),
            ReLU(),
            Linear(hidden, hidden, seed=seed + 1),
            ReLU(),
            Linear(hidden, 1, seed=seed + 2),
        )

    def _arch(self) -> dict:
        return {"hidden": self.hidden, "seed": self.seed}

    def featurize_batch(self, batch: CandidateBatch) -> np.ndarray:
        return statement_matrix_batch(batch)

    def featurize(self, progs: list[LoweredProgram]) -> np.ndarray:
        # only the e2e tracer binds this name (benchmarks/e2e/tracing.py,
        # ROADMAP 1c); nothing in src calls it
        return np.concatenate([self.featurize_batch(p.row) for p in progs])
