"""Simulated wall-clock accounting for the tuning process.

The paper's headline results are *search-time* speedups: how long each
tuner needs to reach a given schedule quality.  On real hardware that
time decomposes into (Table 1):

* **exploration** — feature extraction + cost-model inference over every
  explored candidate (what Pruner's draft model shrinks),
* **training** — online cost-model updates,
* **measurement** — compiling and running candidates on the device.

Because this reproduction runs on a simulator, we account those
components explicitly with a :class:`SimClock` and a :class:`CostTable`
of per-operation constants calibrated so that Ansor with 2,000 trials on
the simulated Jetson Orin lands near the paper's Table 1 split
(35 min exploration / 5.4 min training / 44.4 min measurement).

All times are in seconds of *simulated* wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

EXPLORATION = "exploration"
TRAINING = "training"
MEASUREMENT = "measurement"
OTHER = "other"

_CATEGORIES = (EXPLORATION, TRAINING, MEASUREMENT, OTHER)


@dataclass(frozen=True)
class CostTable:
    """Per-operation simulated-time constants (seconds).

    ``feature_extract`` and ``model_infer`` are per *candidate program*;
    ``model_train`` is per sample per epoch; ``sa_eval`` is one
    Symbol-based-Analyzer evaluation (pure formula, no features);
    ``measure_overhead`` covers compilation + launch per trial, on top of
    the program's own (simulated) run time times ``measure_repeats``.
    """

    feature_extract: dict[str, float] = field(
        default_factory=lambda: {
            "statement": 2.8e-3,
            "primitives": 1.2e-3,
            "dataflow": 1.5e-3,
            "hybrid": 3.4e-3,  # statement + dataflow (PaCM)
        }
    )
    model_infer: dict[str, float] = field(
        default_factory=lambda: {
            "gbdt": 8.0e-4,
            "mlp": 4.0e-4,
            "tlp": 2.5e-3,
            "pacm": 1.2e-3,
        }
    )
    model_train: dict[str, float] = field(
        default_factory=lambda: {
            "gbdt": 2.0e-4,
            "mlp": 1.5e-4,
            "tlp": 8.0e-4,
            "pacm": 4.0e-4,
        }
    )
    sa_eval: float = 2.0e-5
    measure_overhead: float = 1.0
    measure_repeats: int = 100
    # total run time per trial is clipped to this window (TVM bounds the
    # number of evaluation runs so slow kernels don't stall tuning)
    measure_min_run: float = 0.05
    measure_max_run: float = 0.6


class SimClock:
    """Accumulates simulated seconds by category.

    The tuner calls :meth:`charge` as it performs exploration, training
    and measurement work; tuning curves are plotted against
    :attr:`total`.
    """

    def __init__(self, costs: CostTable | None = None) -> None:
        self.costs = costs or CostTable()
        self._elapsed: dict[str, float] = {c: 0.0 for c in _CATEGORIES}

    # ------------------------------------------------------------------
    # generic accounting
    # ------------------------------------------------------------------
    def charge(self, category: str, seconds: float) -> None:
        """Add ``seconds`` to ``category`` (must be a known category)."""
        if category not in self._elapsed:
            raise ValueError(f"unknown time category: {category!r}")
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self._elapsed[category] += seconds

    @property
    def total(self) -> float:
        """Total simulated seconds across all categories."""
        return sum(self._elapsed.values())

    def elapsed(self, category: str) -> float:
        """Simulated seconds accumulated in one category."""
        return self._elapsed[category]

    def breakdown(self) -> dict[str, float]:
        """Copy of the per-category totals."""
        return dict(self._elapsed)

    # ------------------------------------------------------------------
    # convenience charges used by policies / tuners
    # ------------------------------------------------------------------
    def charge_inference(self, feature_kind: str, model_kind: str, n_programs: int) -> None:
        """Charge feature extraction + model inference for ``n_programs``."""
        per = self.costs.feature_extract[feature_kind] + self.costs.model_infer[model_kind]
        self.charge(EXPLORATION, per * n_programs)

    def charge_sa(self, n_programs: int) -> None:
        """Charge draft-model (Symbol-based Analyzer) evaluations."""
        self.charge(EXPLORATION, self.costs.sa_eval * n_programs)

    def charge_training(self, model_kind: str, n_samples: int, epochs: int) -> None:
        """Charge a training run for what it trained.

        ``n_samples`` is the rows handed to ``fit``, not the log size:
        an online Pruner round passes only the tasks that gained rows
        (:meth:`repro.search.tuner.Tuner._update_model`).
        """
        self.charge(TRAINING, self.costs.model_train[model_kind] * n_samples * epochs)

    def charge_measurement(self, latencies_s: list[float]) -> None:
        """Charge on-device measurement of programs with given latencies."""
        c = self.costs
        run_time = sum(
            min(max(lat * c.measure_repeats, c.measure_min_run), c.measure_max_run)
            for lat in latencies_s
        )
        self.charge(MEASUREMENT, run_time + c.measure_overhead * len(latencies_s))

    def snapshot(self) -> "SimClock":
        """Return an independent copy of the current clock state."""
        clone = SimClock(self.costs)
        clone._elapsed = dict(self._elapsed)
        return clone
