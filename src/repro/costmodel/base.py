"""Cost-model interface and shared training machinery.

A cost model maps a :class:`~repro.schedule.batch.CandidateBatch` of
lowered programs to scores (higher = predicted faster).  Only the
within-task *ranking* of scores is consumed by the search policies and
by the Top-k metric, matching how TVM uses learned models.

Training data is (feature matrix, measured latencies, task keys): the
matrix is :meth:`CostModel.featurize_batch` of the measured rows, one
row each, encoded once by whoever holds them (the tuner encodes each
measured batch as it lands).  Labels are the task-normalized
throughputs ``min_latency / latency`` in (0, 1] (0 for invalid
programs), as in Ansor/TenSet.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.blas import single_thread
from repro.config import TrainConfig
from repro.errors import CostModelError
from repro.nn.autograd import Tensor, no_grad
from repro.nn.layers import Module
from repro.nn.losses import lambdarank_loss
from repro.nn.optim import Adam
from repro.rng import make_rng
from repro.schedule.batch import CandidateBatch


#: Version of the state dict :meth:`CostModel.save_state` produces —
#: bump when its layout changes incompatibly.  Checkpoint persistence
#: and wire transport live in :mod:`repro.service.models`.
MODEL_STATE_VERSION = 1


def make_labels(
    latencies: np.ndarray, group_keys: list[str]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Normalized throughput labels + per-task index groups.

    Invalid measurements (inf latency) get label 0.  Groups whose
    measurements are *all* invalid carry no ranking signal, so they are
    left out of the returned index groups entirely (their labels stay
    0): feeding an all-zero-label group to ``lambdarank_loss`` would
    train on pure noise.
    """
    latencies = np.asarray(latencies, dtype=np.float64)
    labels = np.zeros(len(latencies))
    groups: dict[str, list[int]] = {}
    for i, key in enumerate(group_keys):
        groups.setdefault(key, []).append(i)
    group_arrays = []
    for key, idx in groups.items():
        idx_arr = np.asarray(idx)
        lat = latencies[idx_arr]
        finite = lat[np.isfinite(lat)]
        if not len(finite):
            continue
        best = finite.min()
        with np.errstate(divide="ignore", invalid="ignore"):
            norm = np.where(np.isfinite(lat), best / lat, 0.0)
        labels[idx_arr] = norm
        group_arrays.append(idx_arr)
    return labels, group_arrays


class CostModel(ABC):
    """Interface all learned cost models implement."""

    kind: str = "base"  # time-accounting key (see repro.timemodel)
    feature_kind: str = "statement"
    #: whether :meth:`fit` continues from the current parameters (the
    #: NN models keep optimizing the live weights) or rebuilds from
    #: scratch (GBDT refits its trees).  Decides whether a restored
    #: checkpoint's evidence count survives a refit when ranking the
    #: model for the next checkpoint.
    fit_extends_state: bool = True

    @abstractmethod
    def featurize_batch(self, batch: CandidateBatch) -> np.ndarray:
        """The model's input array for a batch, one leading row per candidate."""

    @abstractmethod
    def predict_batch(self, batch: CandidateBatch) -> np.ndarray:
        """Scores for a :class:`CandidateBatch` (higher = predicted faster)."""

    @abstractmethod
    def fit(
        self,
        features: np.ndarray,
        latencies: np.ndarray,
        group_keys: list[str],
        train: TrainConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Train on :meth:`featurize_batch` rows and their measured latencies."""

    # MoA protocol (NN models override via Module)
    def get_params(self) -> dict[str, np.ndarray]:  # pragma: no cover
        raise CostModelError(f"{type(self).__name__} has no parameters")

    def set_params(self, params: dict[str, np.ndarray]) -> None:  # pragma: no cover
        raise CostModelError(f"{type(self).__name__} has no parameters")

    # ------------------------------------------------------------------
    # checkpoint protocol (persisted by repro.service.models.ModelStore)
    # ------------------------------------------------------------------
    def _arch(self) -> dict:
        """JSON-safe architecture metadata stored with checkpoints.

        Everything needed to decide whether a saved state fits this
        instance.  ``seed`` entries are provenance only — the loaded
        parameters overwrite any seed-dependent initialisation, so
        :meth:`load_state` ignores them when checking compatibility.
        """
        return {}

    def _state_params(self) -> dict[str, np.ndarray]:
        """The learned arrays a checkpoint carries (default: MoA params)."""
        return self.get_params()

    def _load_params(self, params: dict[str, np.ndarray]) -> None:
        """Restore the arrays :meth:`_state_params` produced."""
        self.set_params(params)

    def save_state(self) -> dict:
        """Complete serializable state: learned arrays + identity metadata.

        The result round-trips through :meth:`load_state` on a freshly
        constructed model of the same architecture with bit-identical
        predictions.  Models without learned state raise
        :class:`~repro.errors.CostModelError`.
        """
        return {
            "state_v": MODEL_STATE_VERSION,
            "kind": self.kind,
            "feature_kind": self.feature_kind,
            "arch": self._arch(),
            "params": self._state_params(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`save_state` dict into this model.

        Raises :class:`~repro.errors.CostModelError` when the state is
        malformed or was saved by a different model kind, feature kind,
        state version, or architecture — callers treat that as "no
        compatible checkpoint" and cold-start instead.
        """
        try:
            version = int(state.get("state_v", -1))
        except (TypeError, ValueError):
            raise CostModelError("malformed model state: bad state_v") from None
        if version != MODEL_STATE_VERSION:
            raise CostModelError(
                f"model state version {version} != {MODEL_STATE_VERSION}"
            )
        for field, own in (("kind", self.kind), ("feature_kind", self.feature_kind)):
            if state.get(field) != own:
                raise CostModelError(
                    f"checkpoint {field} {state.get(field)!r} does not match "
                    f"this model's {own!r}"
                )
        theirs = {k: v for k, v in (state.get("arch") or {}).items() if k != "seed"}
        ours = {k: v for k, v in self._arch().items() if k != "seed"}
        if theirs != ours:
            raise CostModelError(
                f"architecture mismatch: checkpoint {theirs} vs model {ours}"
            )
        params = state.get("params")
        if not isinstance(params, dict):
            raise CostModelError("malformed model state: no params dict")
        self._load_params(params)


class NNCostModel(CostModel):
    """Shared LambdaRank training loop for the neural cost models.

    Subclasses provide ``self.net`` (a :class:`~repro.nn.layers.Module`)
    and :meth:`featurize_batch` returning the network input for a batch.

    Inputs are standardized with statistics frozen at the first fit;
    the statistics are part of :meth:`get_params` so MoA transfers them
    together with the weights.
    """

    net: Module

    # ------------------------------------------------------------------
    def _norm_stats(self) -> tuple[np.ndarray, np.ndarray] | None:
        return getattr(self, "_feature_norm", None)

    def _normalize(self, features: np.ndarray, fit: bool = False) -> np.ndarray:
        stats = self._norm_stats()
        if stats is None:
            if not fit:
                return features
            flat = features.reshape(-1, features.shape[-1])
            mu = flat.mean(axis=0)
            sigma = flat.std(axis=0)
            sigma[sigma < 1e-6] = 1.0
            stats = (mu, sigma)
            self._feature_norm = stats
        mu, sigma = stats
        # Clip standardized features: unseen tasks can produce values far
        # outside the training range, and unbounded z-scores let ReLU
        # nets extrapolate arbitrarily large scores for single outliers.
        # ``features`` is the caller's; ``z`` is ours to work in.
        z = features - mu
        z /= sigma
        return np.clip(z, -5.0, 5.0, out=z)

    # predict_batch and fit stay defined on this class: the e2e tracer
    # (benchmarks/e2e/tracing.py) patches them here by name (ROADMAP 1c)
    def predict_batch(self, batch: CandidateBatch) -> np.ndarray:
        """Scores for a :class:`CandidateBatch` (higher = predicted faster).

        A row's score depends on the batch it is predicted in: BLAS
        blocks the matrix products by row count, so rows 5-300 of a
        512-row batch predicted on their own differ in the last bits
        (a few 1e-15 for trained TenSetMLP and PaCM), while rows 0-64
        and 64-512 come out identical.  :meth:`~repro.core.analyzer.
        SymbolBasedAnalyzer.score_batch` is row-wise and does not
        depend on the batch.  Reusing a score across batches (say, an
        elite's from an earlier generation) therefore moves search bits.
        """
        if not len(batch):
            return np.zeros(0)
        return self._score(self._normalize(self.featurize_batch(batch)))

    def _score(self, normalized: np.ndarray) -> np.ndarray:
        with single_thread(), no_grad():
            scores = self.net(Tensor(normalized))
        return scores.data.reshape(-1)

    def fit(
        self,
        features: np.ndarray,
        latencies: np.ndarray,
        group_keys: list[str],
        train: TrainConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if len(features) < 2:
            return
        train = train or TrainConfig()
        rng = rng if rng is not None else make_rng(0)
        labels, groups = make_labels(latencies, group_keys)
        features = self._normalize(features, fit=True)
        optimizer = Adam(
            self.net.parameters(),
            lr=train.learning_rate,
            weight_decay=train.weight_decay,
            grad_clip=train.grad_clip,
        )
        with single_thread():
            for _ in range(train.epochs):
                for group in groups:
                    perm = rng.permutation(group)
                    for start in range(0, len(perm), train.batch_size):
                        idx = perm[start : start + train.batch_size]
                        if len(idx) < 2:
                            continue
                        optimizer.zero_grad()
                        scores = self.net(Tensor(features[idx]))
                        loss = lambdarank_loss(
                            scores.reshape(len(idx)),
                            labels[idx],
                            [np.arange(len(idx))],
                            rng=rng,
                        )
                        loss.backward()
                        optimizer.step()

    def get_params(self) -> dict[str, np.ndarray]:
        params = self.net.get_params()
        stats = self._norm_stats()
        if stats is not None:
            params["_norm.mu"] = stats[0].copy()
            params["_norm.sigma"] = stats[1].copy()
        return params

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        params = dict(params)
        mu = params.pop("_norm.mu", None)
        sigma = params.pop("_norm.sigma", None)
        if (mu is None) != (sigma is None):
            # half a pair means the weights would run with the wrong
            # (or no) normalization they were trained under
            raise CostModelError("normalization stats must be a mu/sigma pair")
        if mu is not None and sigma is not None:
            mu, sigma = np.asarray(mu), np.asarray(sigma)
            if mu.ndim != 1 or mu.shape != sigma.shape:
                raise CostModelError(
                    f"malformed normalization stats: {mu.shape} vs {sigma.shape}"
                )
            # fit() clamps tiny deviations to 1.0, so a legitimate save
            # never carries sigma <= 0 or non-finite stats — but
            # (x - mu) / 0 (or NaN anywhere) would turn every
            # prediction NaN instead of rejecting as cold start.
            # np.all(> 0) is False for NaN where np.any(<= 0) is not.
            if not (
                np.all(np.isfinite(mu)) and np.all(sigma > 0) and np.all(np.isfinite(sigma))
            ):
                raise CostModelError(
                    "normalization stats must be finite with positive sigma"
                )
        # load the network first: it validates every name and shape
        # before committing, so a rejected dict cannot leave this model
        # with foreign normalization stats and untouched weights
        self.net.set_params(params)
        if mu is not None and sigma is not None:
            self._feature_norm = (mu.copy(), sigma.copy())

