"""Dataset metrics: Top-k (Eq. 2) and Best-k (Eq. 3).

Top-k evaluates a *cost model*: among each subgraph's candidate
programs, take the model's k highest-scored; the metric is the weighted
ratio of true-optimal latency to the best latency among those picks
(1.0 = the model's top-k always contains the optimum).

Best-k evaluates the *drafted set* S_spec produced by LSE: the weighted
ratio of true-optimal latency to the k-th best latency inside S_spec.
"""

from __future__ import annotations

import math

import numpy as np

from repro.costmodel.base import CostModel
from repro.dataset.tenset import TensorProgramDataset
from repro.errors import DatasetError


def top_k_score(
    model: CostModel, dataset: TensorProgramDataset, k: int = 1
) -> float:
    """Top-k accuracy of a cost model on a dataset (Eq. 2)."""
    if k < 1:
        raise DatasetError("k must be >= 1")
    if not dataset.tasks:
        raise DatasetError("empty dataset")
    numer = denom = 0.0
    for task in dataset.tasks:
        lats = task.latency
        finite = np.isfinite(lats)
        if not finite.any():
            continue
        best = lats[finite].min()
        scores = model.predict_batch(task.batch)
        picks = lats[np.argsort(-scores)[:k]]
        picks = picks[np.isfinite(picks)]
        picked = picks.min() if len(picks) else lats[finite].max()
        numer += best * task.weight
        denom += picked * task.weight
    return numer / denom


def best_k_score(
    spec_latencies: dict[str, list[float]],
    optimal: dict[str, float],
    weights: dict[str, int],
    k: int = 1,
) -> float:
    """Best-k quality of drafted candidate sets (Eq. 3).

    Parameters
    ----------
    spec_latencies:
        Task key -> true latencies of the drafted S_spec members.
    optimal:
        Task key -> true optimal latency of the task (L*_i), estimated
        from the full candidate pool.
    weights:
        Task key -> subgraph occurrence weight (w_i).
    """
    if k < 1:
        raise DatasetError("k must be >= 1")
    numer = denom = 0.0
    for key, lats in spec_latencies.items():
        finite = sorted(v for v in lats if math.isfinite(v))
        if not finite:
            continue
        kth = finite[min(k, len(finite)) - 1]
        w = weights.get(key, 1)
        numer += optimal[key] * w
        denom += kth * w
    if denom == 0:
        raise DatasetError("no finite drafted latencies")
    return numer / denom
