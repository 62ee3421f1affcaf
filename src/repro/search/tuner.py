"""The full-graph tuner (paper Algorithm 1).

Coordinates the task scheduler, a search policy per task, the
measurement runner, and the online cost-model update.  Three cost-model
modes, matching the paper's experimental settings (Section 5):

* ``online``  — the model trains from scratch on data collected during
  this run (Ansor's setting; "w/o MoA" for Pruner);
* ``offline`` — the model was pre-trained (TenSet + target platform
  dataset) and is frozen during search;
* ``moa``     — MoA-Pruner: a cross-platform pre-trained siamese model
  initialises the target model every update, which fine-tunes on the
  online data and momentum-updates the siamese (Section 4.3);
* ``finetune`` — plain online fine-tuning of a pre-trained model (the
  "w/ O-F" ablation of Table 12).
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.config import ONLINE_TRAIN, TrainConfig
from repro.core.moa import MomentumAdapter
from repro.costmodel.base import CostModel
from repro.errors import CostModelError
from repro.hardware.measure import MeasureRunner
from repro.rng import make_rng
from repro.search.policy import SearchPolicy
from repro.search.records import CurvePoint, RecordLog, TuningRecord, time_to_reach
from repro.search.task import TuningTask
from repro.search.task_scheduler import GradientTaskScheduler
from repro.timemodel import SimClock

_MODES = ("online", "offline", "moa", "finetune")

#: Fewest records worth fitting a cost model on — shared by the online
#: update loop and the warm-start seed handling so they cannot drift.
MIN_TRAIN_RECORDS = 4


@dataclass
class RoundProgress:
    """Per-round progress snapshot handed to ``Tuner.tune`` callbacks.

    ``round_index`` counts completed rounds (1-based); ``rounds`` is the
    planned total, so consumers can render ``3/8`` without re-deriving
    the plan.  ``latency`` mirrors the tuning curve (inf until every
    task has a measured trial).  ``stages`` and ``funnel`` carry the
    round's telemetry (stage name -> wall seconds, funnel stage ->
    candidate count, from the :class:`~repro.obs.RoundTrace`) so
    consumers — the service's trace sink, runner heartbeats shipping
    timings into the server's metrics registry — see where the round's
    time went without re-instrumenting anything.
    """

    round_index: int
    rounds: int
    trials: int
    latency: float
    sim_time: float
    stages: dict[str, float] = field(default_factory=dict)
    funnel: dict[str, int] = field(default_factory=dict)
    round_s: float = 0.0  # wall-clock of the whole round

    def to_dict(self) -> dict:
        return {
            "round": self.round_index,
            "rounds": self.rounds,
            "trials": self.trials,
            "latency": self.latency if math.isfinite(self.latency) else None,
            "sim_time": self.sim_time,
            "stages": dict(self.stages),
            "funnel": dict(self.funnel),
            "round_s": self.round_s,
        }


#: Callback types for cooperative control of a tuning run: ``progress``
#: is invoked after every completed round; ``should_stop`` is polled at
#: round boundaries — returning True ends the run early (the serving
#: layer's job cancellation rides on this).
ProgressFn = Callable[[RoundProgress], None]
StopFn = Callable[[], bool]


@dataclass
class TuneResult:
    """Outcome of one tuning run."""

    curve: list[CurvePoint]
    records: RecordLog
    clock: SimClock
    best: dict[str, float]  # task key -> best latency (seconds)
    weights: dict[str, int]
    fixed_latency: float = 0.0  # untuned (element-wise) network part
    seeded_trials: int = 0  # records loaded from a store before tuning
    stopped_early: bool = False  # should_stop() ended the run before plan
    warm_model: bool = False  # cost model restored from a checkpoint

    @property
    def final_latency(self) -> float:
        """End-to-end weighted latency estimate after tuning (seconds)."""
        if not self.curve:
            return math.inf
        return self.curve[-1].latency

    @property
    def total_trials(self) -> int:
        return len(self.records)

    @property
    def fresh_trials(self) -> int:
        """Trials actually measured in this run (total minus warm-start)."""
        return len(self.records) - self.seeded_trials

    def time_to(self, target_latency: float) -> float:
        """Simulated seconds until the curve first reaches the target."""
        return time_to_reach(self.curve, target_latency)


class Tuner:
    """Runs the multi-round tuning loop of Algorithm 1."""

    def __init__(
        self,
        tasks: list[TuningTask],
        policies: dict[str, SearchPolicy],
        model: CostModel,
        runner: MeasureRunner,
        clock: SimClock,
        mode: str = "online",
        adapter: MomentumAdapter | None = None,
        train: TrainConfig | None = None,
        fixed_latency: float = 0.0,
        rng: np.random.Generator | None = None,
        initial_records: Iterable[TuningRecord] | None = None,
        initial_model_state: dict | None = None,
        initial_model_trained_on: int = 0,
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if mode == "moa" and adapter is None:
            raise ValueError("moa mode requires a MomentumAdapter")
        self.tasks = tasks
        self.policies = policies
        self.model = model
        self.runner = runner
        self.clock = clock
        self.mode = mode
        self.adapter = adapter
        self.train = train or ONLINE_TRAIN
        # MoA's stable initialisation permits sparser updates (the paper
        # notes MoA "lowers the training frequency", Section 6.3).
        self.train_every = 2 if mode == "moa" else 1
        self.fixed_latency = fixed_latency
        self.rng = rng if rng is not None else make_rng(0)
        self.records = RecordLog()
        self.scheduler = GradientTaskScheduler(tasks)
        self._round = 0
        #: trace of the most recently completed round (telemetry
        #: consumers read it right after ``step()``).
        self.last_trace: obs.RoundTrace | None = None
        self._model_trained = False
        #: staleness rank a checkpoint of this model deserves: records
        #: fitted at the most recent update this run, floored (for
        #: warm-started models) at the loaded checkpoint's own rank —
        #: the model keeps that inherited evidence even when the record
        #: store now holds fewer rows than that (an operator deleted or
        #: trimmed the key's file), and the improved model must still
        #: be able to replace the stored checkpoint.
        self.model_trained_on = 0
        self._inherited_trained_on = 0
        # Cross-run warm start: restore the model from a persisted
        # checkpoint (repro.service.models.ModelStore) when one fits.
        # An incompatible state is a cold start, not an error — the
        # checkpoint may predate an architecture or feature change.
        # MoA re-initialises the model from its siamese parameters every
        # update, so a restored state would not survive the first round.
        self.warm_model = False
        if initial_model_state is not None and mode != "moa":
            try:
                self.model.load_state(initial_model_state)
                self.warm_model = True
                # models whose fit() rebuilds from scratch (GBDT) lose
                # the checkpoint's evidence at the first retrain, so it
                # must not inflate their future checkpoint rank
                if self.model.fit_extends_state:
                    self._inherited_trained_on = max(0, initial_model_trained_on)
            except CostModelError:
                pass
        # Warm start: seed the log with prior records so policies skip
        # re-measuring known configs and GA seeding starts from the
        # cached bests (the record-reuse fast path of repro.service).
        self.seeded_trials = (
            self.records.seed_from(initial_records) if initial_records else 0
        )
        # A non-empty log makes policies take their model-guided branch,
        # so the model must not be blank: train it on the seeded records
        # up front.  Offline/finetune models arrive pre-trained, so they
        # keep even a tiny seed.  A checkpoint-restored model skips the
        # round-0 retrain only when it was trained on at least as much
        # evidence as the seed holds (``initial_model_trained_on``) —
        # the record store can outgrow a checkpoint when intervening
        # runs disabled the model cache or had their checkpoints
        # rejected.  Blank online/moa models with too few records to
        # train on discard the seed — a cold start beats ranking round
        # one with an unfitted model.
        if self.seeded_trials > 0 and self.mode != "offline":
            if self.warm_model and initial_model_trained_on >= len(self.records):
                pass  # the checkpoint already encodes this evidence
            elif len(self.records) >= MIN_TRAIN_RECORDS:
                self._update_model()
            elif not self.warm_model and self.mode in ("online", "moa"):
                self.records = RecordLog()
                self.seeded_trials = 0

    # ------------------------------------------------------------------
    def tune(
        self,
        rounds: int,
        trial_budget: int | None = None,
        progress: ProgressFn | None = None,
        should_stop: StopFn | None = None,
    ) -> TuneResult:
        """Run up to ``rounds`` tuning rounds and return the result.

        ``trial_budget`` caps the *total* number of logged trials,
        warm-start records included: once the log holds that many
        trials, remaining rounds are skipped.  A warm-started run whose
        cache already covers the budget therefore measures nothing new.

        ``progress`` is called after every completed round with a
        :class:`RoundProgress`; ``should_stop`` is polled before each
        round, and a True return ends the run early with whatever was
        found so far (``stopped_early`` is set on the result).  Both
        run on the tuning thread — callbacks that block stall the run.
        """
        curve: list[CurvePoint] = []
        stopped = False
        for i in range(rounds):
            if should_stop is not None and should_stop():
                stopped = True
                break
            remaining = (
                trial_budget - len(self.records) if trial_budget is not None else None
            )
            if remaining is not None and remaining <= 0:
                break
            self.step(max_trials=remaining)
            point = self._curve_point()
            curve.append(point)
            if progress is not None:
                trace = self.last_trace
                progress(
                    RoundProgress(
                        round_index=i + 1,
                        rounds=rounds,
                        trials=point.trials,
                        latency=point.latency,
                        sim_time=point.sim_time,
                        stages=dict(trace.stages) if trace else {},
                        funnel=dict(trace.funnel) if trace else {},
                        round_s=trace.total if trace else 0.0,
                    )
                )
        if not curve:
            # Fully warm-started (or stopped before round one): report
            # the state the cache put us in.
            curve.append(self._curve_point())
        return TuneResult(
            curve=curve,
            records=self.records,
            clock=self.clock,
            best={t.key: self.records.best_latency(t.key) for t in self.tasks},
            weights={t.key: t.weight for t in self.tasks},
            fixed_latency=self.fixed_latency,
            seeded_trials=self.seeded_trials,
            stopped_early=stopped,
            warm_model=self.warm_model,
        )

    def step(self, max_trials: int | None = None) -> None:
        """One tuning round: select task, propose, measure, update model.

        ``max_trials`` truncates the measurement batch so a trial budget
        is honored exactly, not just at round granularity.

        Every round runs under a fresh :class:`~repro.obs.RoundTrace`:
        the stage spans inside the policies (draft/score/lower/verify)
        and here (measure/train) attach to it through the thread-local,
        and the completed trace lands on :attr:`last_trace`.
        """
        trace = obs.RoundTrace(round_index=self._round)
        start = time.perf_counter()
        with obs.use_trace(trace):
            task = self.scheduler.select(self.records)
            trace.task_key = task.key
            policy = self.policies[task.key]
            batch = policy.propose_batch(self.records, self.rng)
            if batch is not None and max_trials is not None and len(batch) > max_trials:
                batch = batch.take(np.arange(max_trials))
            if batch is not None and len(batch):
                # The packed batch flows straight into the measurement path —
                # no unpacking to a program list on the hot loop.
                with obs.span("measure"):
                    res = self.runner.measure_batch(batch)
                obs.funnel("measured", len(batch))
                sim_time = self.clock.total
                for i in range(len(batch)):
                    self.records.add(
                        TuningRecord(
                            task_key=task.key,
                            prog=batch.program(i),
                            latency=float(res.latency[i]),
                            sim_time=sim_time,
                            round_index=self._round,
                        )
                    )
            self.scheduler.notify(task, self.records)
            self._round += 1
            if self.mode != "offline" and self._round % self.train_every == 0:
                self._update_model()
        trace.total = time.perf_counter() - start
        obs.ROUNDS.inc()
        self.last_trace = trace

    def checkpoint(self) -> dict | None:
        """Serializable cost-model state worth persisting, or None.

        None when the model never trained *this run*: a random
        initialisation would poison later runs' warm starts, and a
        warm-started model that never retrained is already in the store
        — re-saving it (worse: re-ranking it with this run's record
        count) could make staleness arbitration reject genuinely
        better-trained checkpoints.  Also None when the model has no
        serializable state at all (e.g. RandomModel).  Callers pair the
        state with :attr:`model_trained_on` as its staleness rank.
        """
        if not self._model_trained:
            return None
        try:
            return self.model.save_state()
        except CostModelError:
            return None

    # ------------------------------------------------------------------
    def _update_model(self) -> None:
        progs, lats, keys = self.records.training_data()
        if len(progs) < MIN_TRAIN_RECORDS:
            return
        with obs.span("train"):
            if self.mode == "moa":
                assert self.adapter is not None
                self.adapter.load_into(self.model)  # 1. Load Param
                self.model.fit(progs, lats, keys, train=self.train, rng=self.rng)
                self.adapter.update_from(self.model)  # 3. Momentum update
            else:  # online / finetune: keep training the live model
                self.model.fit(progs, lats, keys, train=self.train, rng=self.rng)
        self._model_trained = True
        self.model_trained_on = max(len(progs), self._inherited_trained_on)
        self.clock.charge_training(self.model.kind, len(progs), self.train.epochs)

    def _curve_point(self) -> CurvePoint:
        latency = self.fixed_latency
        for task in self.tasks:
            best = self.records.best_latency(task.key)
            latency += task.weight * (best if math.isfinite(best) else 0.0)
        # Tasks not yet measured contribute nothing; curves start after
        # the warm-up pass, matching how Ansor reports tuning curves.
        any_unmeasured = any(
            not math.isfinite(self.records.best_latency(t.key)) for t in self.tasks
        )
        value = math.inf if any_unmeasured else latency
        return CurvePoint(
            sim_time=self.clock.total, trials=len(self.records), latency=value
        )
