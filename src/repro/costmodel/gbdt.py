"""Gradient-boosted regression trees (Ansor's XGBoost stand-in).

Ansor's default cost model is XGBoost over statement features.  This is
a compact reimplementation: depth-limited exact-split regression trees
boosted on squared error of the normalized-throughput labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import TrainConfig
from repro.costmodel.base import CostModel, make_labels
from repro.errors import CostModelError
from repro.features.statement import STATEMENT_DIM, statement_matrix_batch
from repro.schedule.batch import CandidateBatch


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0


class _Tree:
    """One regression tree (exact greedy splits, depth-limited)."""

    def __init__(self, max_depth: int, min_samples: int) -> None:
        self.max_depth = max_depth
        self.min_samples = min_samples
        self.nodes: list[_Node] = []
        self._packed: tuple[np.ndarray, ...] | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> None:
        self.nodes = []
        self._packed = None
        self._grow(x, y, np.arange(len(y)), depth=0)

    def _grow(self, x, y, idx, depth) -> int:
        node_id = len(self.nodes)
        self.nodes.append(_Node(value=float(y[idx].mean())))
        if depth >= self.max_depth or len(idx) < 2 * self.min_samples:
            return node_id
        best = self._best_split(x, y, idx)
        if best is None:
            return node_id
        feature, threshold, left_idx, right_idx = best
        node = self.nodes[node_id]
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(x, y, left_idx, depth + 1)
        node.right = self._grow(x, y, right_idx, depth + 1)
        return node_id

    def _best_split(self, x, y, idx):
        y_sub = y[idx]
        n = len(idx)
        base_sse = float(((y_sub - y_sub.mean()) ** 2).sum())
        best_gain, best = 1e-9, None
        for f in range(x.shape[1]):
            values = x[idx, f]
            order = np.argsort(values, kind="stable")
            v_sorted, y_sorted = values[order], y_sub[order]
            prefix = np.cumsum(y_sorted)
            prefix_sq = np.cumsum(y_sorted**2)
            total, total_sq = prefix[-1], prefix_sq[-1]
            for cut in range(self.min_samples, n - self.min_samples):
                if v_sorted[cut] == v_sorted[cut - 1]:
                    continue
                nl = cut
                sse_l = prefix_sq[cut - 1] - prefix[cut - 1] ** 2 / nl
                nr = n - cut
                sum_r = total - prefix[cut - 1]
                sse_r = (total_sq - prefix_sq[cut - 1]) - sum_r**2 / nr
                gain = base_sse - (sse_l + sse_r)
                if gain > best_gain:
                    threshold = 0.5 * (v_sorted[cut] + v_sorted[cut - 1])
                    best_gain = gain
                    best = (f, threshold, order[:cut], order[cut:])
        if best is None:
            return None
        f, threshold, lo, ro = best
        return f, threshold, idx[lo], idx[ro]

    def _pack(self) -> tuple[np.ndarray, ...]:
        """Node list as parallel arrays for vectorized traversal."""
        if self._packed is None:
            self._packed = (
                np.array([n.feature for n in self.nodes], dtype=np.int64),
                np.array([n.threshold for n in self.nodes]),
                np.array([n.left for n in self.nodes], dtype=np.int64),
                np.array([n.right for n in self.nodes], dtype=np.int64),
                np.array([n.value for n in self.nodes]),
            )
        return self._packed

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Walk all rows level-by-level (one mask per depth, no Python loop)."""
        feature, threshold, left, right, value = self._pack()
        node = np.zeros(len(x), dtype=np.int64)
        while True:
            feat = feature[node]
            active = feat >= 0
            if not active.any():
                break
            rows = np.flatnonzero(active)
            go_left = x[rows, feat[rows]] <= threshold[node[rows]]
            node[rows] = np.where(go_left, left[node[rows]], right[node[rows]])
        return value[node]


class GBDTModel(CostModel):
    """Boosted-tree cost model over statement features."""

    kind = "gbdt"
    feature_kind = "statement"
    # fit() rebuilds the trees from whatever data it is given — a
    # restored checkpoint's evidence does not survive a refit
    fit_extends_state = False

    def __init__(
        self,
        n_trees: int = 30,
        max_depth: int = 3,
        learning_rate: float = 0.2,
        min_samples: int = 4,
    ) -> None:
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.min_samples = min_samples
        self._trees: list[_Tree] = []
        self._base: float = 0.0

    def featurize_batch(self, batch: CandidateBatch) -> np.ndarray:
        return statement_matrix_batch(batch)

    def predict_batch(self, batch: CandidateBatch) -> np.ndarray:
        if not len(batch):
            return np.zeros(0)
        x = self.featurize_batch(batch)
        pred = np.full(len(x), self._base)
        for tree in self._trees:
            pred += self.learning_rate * tree.evaluate(x)
        return pred

    # ------------------------------------------------------------------
    # checkpoint protocol: the packed tree arrays ARE the learned state
    # ------------------------------------------------------------------
    def _arch(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "learning_rate": self.learning_rate,
            "min_samples": self.min_samples,
        }

    def _state_params(self) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {"_base": np.array([self._base])}
        for i, tree in enumerate(self._trees):
            feature, threshold, left, right, value = tree._pack()
            params[f"tree.{i:04d}.feature"] = feature.copy()
            params[f"tree.{i:04d}.threshold"] = threshold.copy()
            params[f"tree.{i:04d}.left"] = left.copy()
            params[f"tree.{i:04d}.right"] = right.copy()
            params[f"tree.{i:04d}.value"] = value.copy()
        return params

    def _load_params(self, params: dict[str, np.ndarray]) -> None:
        # Validate everything into locals first, assign at the very end:
        # checkpoints arrive from disk and from untrusted runners, and a
        # rejected state must leave the live model untouched (and raise
        # CostModelError, which warm-start callers treat as cold start).
        if "_base" not in params:
            raise CostModelError("GBDT state is missing its base prediction")
        base_arr = np.asarray(params["_base"]).reshape(-1)
        if base_arr.size != 1 or not np.isfinite(base_arr[0]):
            raise CostModelError("GBDT state has a malformed base prediction")
        indices = sorted(
            {name.split(".")[1] for name in params if name.startswith("tree.")}
        )
        # fit() always emits exactly n_trees trees; a different count is
        # a truncated or forged envelope.  Zero trees is the one honest
        # exception: an unfitted model's state.
        if indices and len(indices) != self.n_trees:
            raise CostModelError(
                f"GBDT state has {len(indices)} trees, expected {self.n_trees}"
            )
        trees: list[_Tree] = []
        for idx in indices:
            arrays = {}
            for part in ("feature", "threshold", "left", "right", "value"):
                name = f"tree.{idx}.{part}"
                if name not in params:
                    raise CostModelError(f"GBDT state is missing {name}")
                arrays[part] = np.asarray(params[name]).reshape(-1)
            lengths = {len(arr) for arr in arrays.values()}
            if len(lengths) != 1 or 0 in lengths:
                raise CostModelError(f"GBDT tree {idx} has empty or ragged node arrays")
            for part, arr in arrays.items():
                # NaN/inf would escape the int casts below as bare
                # ValueError/OverflowError, or silently skew predict_batch()
                if not np.all(np.isfinite(arr)):
                    raise CostModelError(
                        f"GBDT tree {idx} has non-finite {part} values"
                    )
            (length,) = lengths
            # Split nodes must point at real children *after* themselves:
            # out-of-range indices crash evaluate()'s level walk, and a
            # cycle (child <= parent) makes its `while True` loop spin
            # forever.  fit-built trees always append children after the
            # parent, so strictly-increasing is the exact invariant.
            split = arrays["feature"].astype(np.int64) >= 0
            own = np.flatnonzero(split)
            if len(own) and arrays["feature"].astype(np.int64).max() >= STATEMENT_DIM:
                raise CostModelError(
                    f"GBDT tree {idx} splits on out-of-range feature indices"
                )
            for side in ("left", "right"):
                child = arrays[side].astype(np.int64)[split]
                if len(child) and (
                    child.max() >= length or (child <= own).any()
                ):
                    raise CostModelError(
                        f"GBDT tree {idx} has cyclic or out-of-range {side} children"
                    )
            tree = _Tree(self.max_depth, self.min_samples)
            tree.nodes = [
                _Node(
                    feature=int(f),
                    threshold=float(t),
                    left=int(lo),
                    right=int(hi),
                    value=float(v),
                )
                for f, t, lo, hi, v in zip(
                    arrays["feature"],
                    arrays["threshold"],
                    arrays["left"],
                    arrays["right"],
                    arrays["value"],
                )
            ]
            trees.append(tree)
        self._trees = trees
        self._base = float(base_arr[0])

    def fit(
        self,
        features: np.ndarray,
        latencies: np.ndarray,
        group_keys: list[str],
        train: TrainConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if len(features) < 4:
            return
        labels, _ = make_labels(latencies, group_keys)
        self._trees = []
        self._base = float(labels.mean())
        residual = labels - self._base
        pred = np.full(len(labels), self._base)
        for _ in range(self.n_trees):
            tree = _Tree(self.max_depth, self.min_samples)
            tree.fit(features, residual)
            update = tree.evaluate(features)
            pred += self.learning_rate * update
            residual = labels - pred
            self._trees.append(tree)
