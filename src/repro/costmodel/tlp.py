"""TLP: transformer over schedule-primitive sequences.

Reimplementation of TLP's cost model: feature extraction straight from
high-level schedule primitives (cheap, no lowering analysis) encoded as
sparse one-hots, fed to a small transformer.  As the paper discusses
(Section 2.3(2)), the sparsity makes this model data-hungry: it shines
with large offline corpora and struggles in online tuning — behaviour
that emerges naturally here (see the Figure 15 benchmark).
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.base import NNCostModel
from repro.features.primitives import PRIMITIVE_DIM, primitive_tensor_batch
from repro.schedule.batch import CandidateBatch
from repro.nn.layers import (
    LayerNorm,
    Linear,
    Module,
    MultiHeadSelfAttention,
    ReLU,
    Sequential,
)


class _TLPNet(Module):
    """Token embedding -> self-attention block -> mean pool -> head."""

    def __init__(self, d_model: int = 32, seed: int = 0) -> None:
        self.embed = Linear(PRIMITIVE_DIM, d_model, seed=seed)
        self.attn = MultiHeadSelfAttention(d_model, heads=2, seed=seed + 10)
        self.norm = LayerNorm(d_model)
        self.head = Sequential(
            Linear(d_model, d_model, seed=seed + 20),
            ReLU(),
            Linear(d_model, 1, seed=seed + 21),
        )

    def forward(self, x: np.ndarray, const: bool = False) -> np.ndarray:  # (N, T, F)
        h = self.embed.forward(x, const)
        h = self.norm.forward(h + self.attn.forward(h))
        self._keep(h.shape)
        # the mean pool; .mean() would round differently
        return self.head.forward(h.sum(axis=1) * (1.0 / h.shape[1]))

    def backward(self, g: np.ndarray) -> np.ndarray | None:
        (shape,) = self._take()
        g = self.head.backward(g)
        # the mean pool, then the residual around the attention block
        g = np.broadcast_to(g[:, None, :], shape) * (1.0 / shape[1])
        g = self.norm.backward(g)
        return self.embed.backward(self.attn.backward(g, residual=g))


class TLPModel(NNCostModel):
    """Transformer cost model over primitive sequences."""

    kind = "tlp"
    feature_kind = "primitives"

    def __init__(self, d_model: int = 32, seed: int = 0) -> None:
        self.d_model = d_model
        self.seed = seed
        self.net = _TLPNet(d_model=d_model, seed=seed)

    def _arch(self) -> dict:
        return {"d_model": self.d_model, "seed": self.seed}

    def featurize_batch(self, batch: CandidateBatch) -> np.ndarray:
        return primitive_tensor_batch(batch)
