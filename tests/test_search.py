"""Tests for the search infrastructure (tasks, records, policies, tuner)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import SearchConfig, TrainConfig
from repro.core.analyzer import is_launchable
from repro.costmodel import GBDTModel, PaCM
from repro.costmodel.base import RandomModel
from repro.hardware.measure import MeasureRunner
from repro.ir import ops
from repro.ir.partition import SubgraphTask
from repro.rng import make_rng
from repro.schedule import evolve as evolve_module
from repro.schedule import lower, random_config
from repro.schedule.batch import ConfigBatch, lower_batch
from repro.schedule.mutate import mutate_batch
from repro.schedule.sampler import random_batch
from repro.search import (
    AnsorPolicy,
    GradientTaskScheduler,
    PrunerPolicy,
    RecordLog,
    Tuner,
    TuningRecord,
    make_tasks,
)
from repro.search.records import CurvePoint, time_to_reach
from repro.search.task import TuningTask
from repro.timemodel import EXPLORATION, SimClock

SEARCH = SearchConfig(population=24, ga_steps=2, spec_size=16, measure_per_round=5)


@pytest.fixture
def two_tasks(a100):
    subs = [
        SubgraphTask(ops.matmul(256, 256, 256), 3),
        SubgraphTask(ops.conv2d(1, 32, 28, 28, 64, 3), 2),
    ]
    return make_tasks(subs, a100)


class TestTuningTask:
    def test_make_tasks_skips_elementwise(self, a100):
        subs = [
            SubgraphTask(ops.matmul(64, 64, 64), 1),
            SubgraphTask(ops.elementwise((64, 64)), 5),
        ]
        tasks = make_tasks(subs, a100)
        assert len(tasks) == 1

    def test_tensorcore_fallback_for_ineligible(self, a100):
        subs = [SubgraphTask(ops.batch_matmul(8, 1, 64, 64, dtype="float16"), 1)]
        (task,) = make_tasks(subs, a100, tensorcore=True)
        assert not task.space.tensorcore  # fell back to CUDA cores

    def test_task_key_includes_device(self, a100, t4):
        sub = SubgraphTask(ops.matmul(64, 64, 64), 1)
        (ta,) = make_tasks([sub], a100)
        (tb,) = make_tasks([sub], t4)
        assert ta.key != tb.key


class TestRecordLog:
    def _rec(self, task, latency, rng, round_index=0):
        prog = lower(task.space, random_config(task.space, rng))
        return TuningRecord(task.key, prog, latency, 0.0, round_index)

    def test_best_tracking(self, two_tasks, rng):
        log = RecordLog()
        task = two_tasks[0]
        log.add(self._rec(task, 2e-3, rng))
        log.add(self._rec(task, 1e-3, rng))
        log.add(self._rec(task, 5e-3, rng))
        assert log.best_latency(task.key) == 1e-3

    def test_invalid_records_never_best(self, two_tasks, rng):
        log = RecordLog()
        task = two_tasks[0]
        log.add(self._rec(task, math.inf, rng))
        assert log.best(task.key) is None
        log.add(self._rec(task, 1e-3, rng))
        assert log.best_latency(task.key) == 1e-3

    def test_already_measured(self, two_tasks, rng):
        log = RecordLog()
        task = two_tasks[0]
        rec = self._rec(task, 1e-3, rng)
        log.add(rec)
        assert log.already_measured(task.key, rec.prog.config.key)
        assert not log.already_measured(task.key, "other")

    def test_best_configs_sorted_and_deduped(self, two_tasks, rng):
        log = RecordLog()
        task = two_tasks[0]
        for lat in (3e-3, 1e-3, 2e-3):
            log.add(self._rec(task, lat, rng))
        bests = log.best_configs(task.key, k=2)
        assert len(bests) == 2

    def test_time_to_reach(self):
        curve = [CurvePoint(10, 5, 3.0), CurvePoint(20, 10, 2.0), CurvePoint(30, 15, 1.0)]
        assert time_to_reach(curve, 2.5) == 20
        assert math.isinf(time_to_reach(curve, 0.5))


def _propose(policy, records, rng):
    """One round's measurement batch as scalar programs."""
    batch = policy.propose_batch(records, rng)
    return [] if batch is None else [batch.program(i) for i in range(len(batch))]


class TestPolicies:
    @pytest.mark.parametrize("policy_cls", [AnsorPolicy, PrunerPolicy])
    def test_proposals_are_launchable_and_unique(self, policy_cls, two_tasks, a100):
        clock = SimClock()
        model = RandomModel()
        task = two_tasks[0]
        policy = policy_cls(task, model, search=SEARCH, clock=clock)
        records = RecordLog()
        progs = _propose(policy, records, make_rng(0))
        assert 0 < len(progs) <= SEARCH.measure_per_round
        keys = [p.config.key for p in progs]
        assert len(keys) == len(set(keys))
        assert all(is_launchable(p, a100) for p in progs)

    def test_no_remeasure(self, two_tasks, a100):
        task = two_tasks[0]
        policy = PrunerPolicy(task, RandomModel(), search=SEARCH)
        records = RecordLog()
        first = _propose(policy, records, make_rng(0))
        for p in first:
            records.add(TuningRecord(task.key, p, 1e-3, 0.0, 0))
        second = _propose(policy, records, make_rng(1))
        measured = {p.config.key for p in first}
        assert all(p.config.key not in measured for p in second)

    def test_ansor_charges_more_exploration_than_pruner(self, two_tasks):
        """The core of Tables 1/7: draft-then-verify slashes inference."""
        task = two_tasks[0]
        results = {}
        for name, cls, model in (
            ("ansor", AnsorPolicy, GBDTModel()),
            ("pruner", PrunerPolicy, PaCM()),
        ):
            clock = SimClock()
            policy = cls(task, model, search=SEARCH, clock=clock)
            records = RecordLog()
            # seed one round so models count as trained
            for p in _propose(policy, records, make_rng(0)):
                records.add(TuningRecord(task.key, p, 1e-3, 0.0, 0))
            model.fit(*records.training_data(), train=TrainConfig(epochs=2))
            clock_before = clock.elapsed(EXPLORATION)
            policy.propose_batch(records, make_rng(1))
            results[name] = clock.elapsed(EXPLORATION) - clock_before
        assert results["pruner"] < results["ansor"]


class TestSeededPopulation:
    """``SearchPolicy._seeded_population`` (one call of
    ``schedule.evolve.seeded_population``) draws only the mutation
    batches of which a row survives the cap."""

    @staticmethod
    def _setup(monkeypatch, a100, workload, population, n_seeds):
        task = TuningTask.create(workload, a100)
        records = RecordLog()
        seeds = lower_batch(task.space, random_batch(task.space, make_rng(50), n_seeds))
        for i in range(len(seeds)):
            records.add(TuningRecord(task.key, seeds.program(i), 1e-3 * (i + 1), 0.0, 0))
        drawn: list[ConfigBatch] = []

        def counting(batch, space, rng):
            drawn.append(mutate_batch(batch, space, rng))
            return drawn[-1]

        monkeypatch.setattr(evolve_module, "mutate_batch", counting)
        search = SearchConfig(population=population)
        got = AnsorPolicy(task, RandomModel(), search=search)._seeded_population(
            records, make_rng(51)
        )

        # the loop this replaced: population // 16 batches, then the cap
        rng = make_rng(51)
        parts = [random_batch(task.space, rng, population)]
        if n_seeds:
            parts.append(seeds.configs)
            for _ in range(max(1, population // 16)):
                parts.append(mutate_batch(seeds.configs, task.space, rng))
        uncapped = ConfigBatch.concat(parts)
        return got, drawn, uncapped, seeds.configs

    def test_full_population_draws_three_batches(self, monkeypatch, a100):
        got, drawn, uncapped, seeds = self._setup(
            monkeypatch, a100, ops.matmul(256, 256, 256), 512, 8
        )
        assert len(drawn) == 3
        assert len(got) == 512 + 8 * 4
        keys = got.row_keys()
        assert keys[512:520] == seeds.row_keys()  # best first, as recorded
        assert keys[520:] == [key for batch in drawn for key in batch.row_keys()]
        assert keys == uncapped.row_keys()[: len(got)]

    def test_no_seeds_draws_nothing(self, monkeypatch, a100):
        got, drawn, uncapped, _ = self._setup(
            monkeypatch, a100, ops.matmul(256, 256, 256), 64, 0
        )
        assert drawn == []
        assert got.row_keys() == uncapped.row_keys()

    def test_short_random_population_still_fills_the_cap(self, monkeypatch, a100):
        """336 schedules exist: 200 rows of room take 25 batches of 8."""
        got, drawn, uncapped, _ = self._setup(
            monkeypatch, a100, ops.elementwise((64, 128), n_inputs=2), 512, 8
        )
        assert len(drawn) == 25
        assert len(got) == 512 + 8 * 4
        assert got.row_keys() == uncapped.row_keys()[: len(got)]

    def test_never_more_batches_than_before(self, monkeypatch, a100):
        """54 schedules exist: the cap is out of reach of 32 batches."""
        got, drawn, uncapped, _ = self._setup(
            monkeypatch, a100, ops.elementwise((4, 4), n_inputs=2), 512, 8
        )
        assert len(drawn) == 512 // 16
        assert len(got) == 54 + 8 + 32 * 8 < 512 + 8 * 4
        assert got.row_keys() == uncapped.row_keys()

    def test_small_populations_keep_their_one_or_two_batches(self, monkeypatch, a100):
        got, drawn, uncapped, _ = self._setup(
            monkeypatch, a100, ops.matmul(256, 256, 256), 24, 5
        )
        assert len(drawn) == 1
        assert got.row_keys() == uncapped.row_keys()


class TestTaskScheduler:
    def test_warmup_round_robin(self, two_tasks):
        sched = GradientTaskScheduler(two_tasks)
        records = RecordLog()
        first = sched.select(records)
        sched.notify(first, records)
        second = sched.select(records)
        assert first.key != second.key

    def test_prefers_unmeasured_tasks(self, two_tasks, rng):
        sched = GradientTaskScheduler(two_tasks)
        records = RecordLog()
        t0 = two_tasks[0]
        prog = lower(t0.space, random_config(t0.space, rng))
        records.add(TuningRecord(t0.key, prog, 1e-3, 0.0, 0))
        sched.notify(t0, records)
        assert sched.select(records).key == two_tasks[1].key

    def test_warmup_skips_a_task_the_seeded_log_covers(self, two_tasks, rng):
        """A chain of one-round warm-started jobs must reach the second task."""
        t0, t1 = two_tasks
        records = RecordLog()
        prog = lower(t0.space, random_config(t0.space, rng))
        records.add(TuningRecord(t0.key, prog, 1e-3, 0.0, 0))
        assert GradientTaskScheduler(two_tasks).select(records).key == t1.key

    def test_warmup_follows_task_order_on_an_empty_log(self, two_tasks, rng):
        sched = GradientTaskScheduler(two_tasks)
        records = RecordLog()
        picked = []
        for _ in two_tasks:
            task = sched.select(records)
            picked.append(task.key)
            prog = lower(task.space, random_config(task.space, rng))
            records.add(TuningRecord(task.key, prog, 1e-3, 0.0, 0))
            sched.notify(task, records)
        assert picked == [t.key for t in two_tasks]

    def test_empty_tasks_rejected(self):
        with pytest.raises(ValueError):
            GradientTaskScheduler([])


class TestTuner:
    def _build(self, tasks, a100, mode="online", model=None, adapter=None):
        clock = SimClock()
        runner = MeasureRunner(a100, clock=clock, rng=make_rng(0))
        model = model or PaCM()
        policies = {
            t.key: PrunerPolicy(t, model, search=SEARCH, clock=clock) for t in tasks
        }
        return Tuner(
            tasks,
            policies,
            model,
            runner,
            clock,
            mode=mode,
            adapter=adapter,
            train=TrainConfig(epochs=2),
            rng=make_rng(1),
        )

    def test_curve_monotone_after_warmup(self, two_tasks, a100):
        result = self._build(two_tasks, a100).tune(8)
        finite = [p.latency for p in result.curve if math.isfinite(p.latency)]
        assert finite, "curve never became finite"
        assert all(b <= a * 1.0001 for a, b in zip(finite, finite[1:]))

    def test_trials_counted(self, two_tasks, a100):
        result = self._build(two_tasks, a100).tune(6)
        assert result.total_trials <= 6 * SEARCH.measure_per_round
        assert result.total_trials > 0

    def test_offline_mode_never_trains(self, two_tasks, a100):
        model = PaCM()
        tuner = self._build(two_tasks, a100, mode="offline", model=model)
        before = model.get_params()
        tuner.tune(4)
        after = model.get_params()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_moa_mode_updates_siamese(self, two_tasks, a100):
        from repro.core.moa import MomentumAdapter

        model = PaCM()
        # give the adapter trained-shape params (incl. norm stats)
        progs = []
        task = two_tasks[0]
        rng = make_rng(2)
        progs = [lower(task.space, random_config(task.space, rng)) for _ in range(8)]
        model.fit(progs, np.full(8, 1e-3), [task.key] * 8, train=TrainConfig(epochs=1))
        adapter = MomentumAdapter.from_model(model)
        start = adapter.siamese_params
        tuner = self._build(two_tasks, a100, mode="moa", model=model, adapter=adapter)
        tuner.tune(4)
        assert adapter.drift(start) > 0

    def test_unknown_mode_rejected(self, two_tasks, a100):
        with pytest.raises(ValueError):
            self._build(two_tasks, a100, mode="bogus")

    def test_fixed_latency_added_to_curve(self, two_tasks, a100):
        tuner = self._build(two_tasks, a100)
        tuner.fixed_latency = 1.0
        result = tuner.tune(4)
        finite = [p.latency for p in result.curve if math.isfinite(p.latency)]
        assert all(v >= 1.0 for v in finite)
