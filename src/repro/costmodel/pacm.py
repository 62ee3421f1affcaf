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
from repro.nn.autograd import Tensor, concatenate
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

    def forward(self, x: Tensor) -> Tensor:
        """x packs [statement | flattened dataflow] per row."""
        n = x.shape[0]
        branches: list[Tensor] = []
        if self.use_statement:
            stmt = Tensor(x.data[:, :STATEMENT_DIM])
            branches.append(self.stmt_branch(stmt))
        if self.use_dataflow:
            df = Tensor(
                x.data[:, STATEMENT_DIM:].reshape(n, DATAFLOW_BLOCKS, DATAFLOW_DIM)
            )
            h = self.df_embed(df)
            h = self.df_norm(h + self.df_attn(h))
            branches.append(h.mean(axis=1))
        fused = branches[0] if len(branches) == 1 else concatenate(branches, axis=-1)
        return self.head(fused)


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

    def featurize(self, progs: list[LoweredProgram]) -> np.ndarray:
        # packed once; a from_programs batch has no configs, so both
        # encoders below skip the feature-row cache
        return _hybrid(CandidateBatch.from_programs(progs))

    def featurize_batch(self, batch: CandidateBatch) -> np.ndarray:
        return _hybrid(batch)
