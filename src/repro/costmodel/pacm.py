"""PaCM — the Pattern-aware Cost Model (paper Section 4.2, Figure 4).

The "Verify" half of Pruner.  A multi-branch Pattern-aware Transformer:

* **statement branch** — multiple linear layers over the naive
  statement features, summed into a high-dimensional vector;
* **temporal-dataflow branch** — the (10, 23) dataflow-block sequence
  through a self-attention block (the blocks have strong contextual /
  temporal correlation);
* **fusion head** — concatenation followed by linear layers producing a
  normalized prediction.

Trained with normalized latency labels and LambdaRank (Section 4.2).
The ``use_statement`` / ``use_dataflow`` switches implement the Table 12
ablations (w/o S.F. and w/o T.D.F.).
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.base import NNCostModel
from repro.errors import CostModelError
from repro.features.dataflow import (
    DATAFLOW_BLOCKS,
    DATAFLOW_DIM,
    dataflow_tensor_batch,
)
from repro.features.statement import STATEMENT_DIM, statement_matrix_batch
from repro.schedule.batch import CandidateBatch
from repro.nn.layers import (
    LayerNorm,
    Linear,
    Module,
    MultiHeadSelfAttention,
    ReLU,
    Sequential,
)
from repro.schedule.lower import LoweredProgram

_DF_FLAT = DATAFLOW_BLOCKS * DATAFLOW_DIM


def _hybrid(batch: CandidateBatch) -> np.ndarray:
    """[statement | flattened dataflow] rows, the layout ``_PaCMNet`` unpacks."""
    stmt = statement_matrix_batch(batch)
    df = dataflow_tensor_batch(batch).reshape(len(batch), _DF_FLAT)
    return np.concatenate([stmt, df], axis=1)


class _PaCMNet(Module):
    """Multi-branch pattern-aware transformer."""

    def __init__(
        self,
        d_model: int = 32,
        stmt_dim: int = 64,
        use_statement: bool = True,
        use_dataflow: bool = True,
        seed: int = 0,
    ) -> None:
        if not (use_statement or use_dataflow):
            raise CostModelError("PaCM needs at least one feature branch")
        self.use_statement = use_statement
        self.use_dataflow = use_dataflow
        self.stmt_dim = stmt_dim
        fused = 0
        if use_statement:
            self.stmt_branch = Sequential(
                Linear(STATEMENT_DIM, stmt_dim, seed=seed),
                ReLU(),
                Linear(stmt_dim, stmt_dim, seed=seed + 1),
                ReLU(),
                Linear(stmt_dim, stmt_dim, seed=seed + 2),
            )
            fused += stmt_dim
        if use_dataflow:
            self.df_embed = Linear(DATAFLOW_DIM, d_model, seed=seed + 3)
            self.df_attn = MultiHeadSelfAttention(d_model, heads=2, seed=seed + 4)
            self.df_norm = LayerNorm(d_model)
            fused += d_model
        self.head = Sequential(
            Linear(fused, 64, seed=seed + 5),
            ReLU(),
            Linear(64, 1, seed=seed + 6),
        )

    def forward(self, x: np.ndarray, const: bool = False) -> np.ndarray:
        """x packs [statement | flattened dataflow] per row.

        The rows are features, so both branches take them as constant
        whatever ``const`` says, and :meth:`backward` returns None.
        """
        branches: list[np.ndarray] = []
        if self.use_statement:
            branches.append(self.stmt_branch.forward(x[:, :STATEMENT_DIM], True))
        if self.use_dataflow:
            df = x[:, STATEMENT_DIM:].reshape(len(x), DATAFLOW_BLOCKS, DATAFLOW_DIM)
            h = self.df_embed.forward(df, True)
            a = self.df_attn.forward(h)  # fresh, and no layer kept it: add in place
            a += h
            h = self.df_norm.forward(a)
            # the mean pool; .mean() would round differently
            pooled = h.sum(axis=1)
            pooled *= 1.0 / DATAFLOW_BLOCKS
            branches.append(pooled)
        fused = branches[0] if len(branches) == 1 else np.concatenate(branches, axis=-1)
        return self.head.forward(fused)

    def backward(self, g: np.ndarray) -> None:
        g = self.head.backward(g)
        if self.use_statement:  # the concat split: statement columns first
            self.stmt_branch.backward(g[:, : self.stmt_dim])
            g = g[:, self.stmt_dim :]
        if self.use_dataflow:
            # the mean pool, then the residual around the attention block
            shape = (len(g), DATAFLOW_BLOCKS, g.shape[1])
            g = np.broadcast_to(g[:, None, :], shape) * (1.0 / DATAFLOW_BLOCKS)
            g = self.df_norm.backward(g)
            self.df_embed.backward(self.df_attn.backward(g, residual=g))


class PaCM(NNCostModel):
    """Pattern-aware Cost Model: hybrid statement + dataflow features."""

    kind = "pacm"
    feature_kind = "hybrid"

    def __init__(
        self,
        d_model: int = 32,
        use_statement: bool = True,
        use_dataflow: bool = True,
        seed: int = 0,
    ) -> None:
        self.d_model = d_model
        self.use_statement = use_statement
        self.use_dataflow = use_dataflow
        self.seed = seed
        self.net = _PaCMNet(
            d_model=d_model,
            use_statement=use_statement,
            use_dataflow=use_dataflow,
            seed=seed,
        )

    def _arch(self) -> dict:
        return {
            "d_model": self.d_model,
            "use_statement": self.use_statement,
            "use_dataflow": self.use_dataflow,
            "seed": self.seed,
        }

    def featurize_batch(self, batch: CandidateBatch) -> np.ndarray:
        return _hybrid(batch)

    def featurize(self, progs: list[LoweredProgram]) -> np.ndarray:
        # only the e2e tracer binds this name (benchmarks/e2e/tracing.py,
        # ROADMAP 1c); nothing in src calls it
        return np.concatenate([self.featurize_batch(p.row) for p in progs])
