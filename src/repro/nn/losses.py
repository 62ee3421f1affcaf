"""Losses: MSE and the LambdaRank ranking loss (paper Section 4.2).

PaCM (and our TLP reimplementation) are trained as rankers: within each
tuning task, only the *ordering* of schedule latencies matters.
LambdaRank defines per-sample gradients (lambdas) directly; we compute
them in numpy and inject them through the autograd graph via the
standard ``(scores * stop_grad(lambdas)).sum()`` construction, whose
gradient w.r.t. ``scores`` is exactly the lambda vector.
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor
from repro.rng import make_rng


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    diff = pred - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


def _dcg_discounts(n: int) -> np.ndarray:
    return 1.0 / np.log2(np.arange(2, n + 2))


def lambdarank_lambdas(
    scores: np.ndarray, labels: np.ndarray, sigma: float = 1.0
) -> np.ndarray:
    """LambdaRank gradients for one group (higher label = better).

    Uses |Delta NDCG| pair weights with exponential gains, the
    formulation of Burges et al. / the LambdaLoss framework the paper
    cites.
    """
    n = len(scores)
    if n < 2:
        return np.zeros(n)
    gains = (np.power(2.0, labels) - 1.0) / max(1e-12, 2.0 ** labels.max() - 1.0)
    order = np.argsort(-scores)
    ranks = np.empty(n, dtype=int)
    ranks[order] = np.arange(n)
    discounts = _dcg_discounts(n)[ranks]
    ideal = np.sort(gains)[::-1] @ _dcg_discounts(n)
    ideal = max(ideal, 1e-12)

    diff_label = labels[:, None] - labels[None, :]
    sij = np.sign(diff_label)
    score_diff = scores[:, None] - scores[None, :]
    rho = 1.0 / (1.0 + np.exp(np.clip(sigma * sij * score_diff, -60, 60)))
    delta_ndcg = (
        np.abs(gains[:, None] - gains[None, :])
        * np.abs(discounts[:, None] - discounts[None, :])
        / ideal
    )
    lam = -sigma * sij * rho * delta_ndcg
    return lam.sum(axis=1)


def lambdarank_loss(
    scores: Tensor,
    labels: np.ndarray,
    groups: list[np.ndarray],
    sigma: float = 1.0,
    max_group: int = 512,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Differentiable LambdaRank loss over grouped samples.

    Parameters
    ----------
    scores:
        Model outputs, shape (N,).
    labels:
        Ground-truth relevance (normalized throughput), shape (N,).
    groups:
        Index arrays; each group is ranked independently (one tuning
        task per group).
    max_group:
        Groups larger than this are subsampled per call to bound the
        O(n^2) pair computation.
    """
    s = scores.data
    lambdas = np.zeros_like(s)
    for idx in groups:
        idx = np.asarray(idx)
        if len(idx) > max_group:
            if rng is None:
                rng = make_rng(0)
            idx = rng.choice(idx, size=max_group, replace=False)
        lambdas[idx] += lambdarank_lambdas(s[idx], np.asarray(labels)[idx], sigma)
    # gradient of (scores * lambdas).sum() w.r.t. scores is `lambdas`.
    return (scores * Tensor(lambdas)).sum()


def pairwise_rank_accuracy(
    scores: np.ndarray, labels: np.ndarray, groups: list[np.ndarray]
) -> float:
    """Fraction of correctly ordered pairs (reporting metric)."""
    correct = total = 0
    for idx in groups:
        s, l = scores[idx], labels[idx]
        diff_l = l[:, None] - l[None, :]
        diff_s = s[:, None] - s[None, :]
        mask = diff_l > 0
        total += int(mask.sum())
        correct += int(((diff_s > 0) & mask).sum())
    return correct / max(1, total)
