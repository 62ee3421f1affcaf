"""Minimal numpy neural-network substrate (layers, autograd, optim, losses).

The paper's cost models (TenSetMLP, TLP's transformer, PaCM's
pattern-aware transformer) are small networks; this package provides
the layers they need -- linear, ReLU, layer-norm, multi-head
self-attention -- each with a hand-written backward over ndarrays, a
thin autograd whose graph holds one node per network call plus the
loss, Adam, and the LambdaRank ranking loss the paper trains PaCM with
(Section 4.2).
"""

from repro.nn.autograd import Tensor, no_grad
from repro.nn.layers import (
    Linear,
    LayerNorm,
    Module,
    MultiHeadSelfAttention,
    ReLU,
    Sequential,
)
from repro.nn.optim import Adam
from repro.nn.losses import lambdarank_loss, pairwise_rank_accuracy

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Linear",
    "ReLU",
    "Sequential",
    "LayerNorm",
    "MultiHeadSelfAttention",
    "Adam",
    "lambdarank_loss",
    "pairwise_rank_accuracy",
]
