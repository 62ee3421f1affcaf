"""Tests for the search infrastructure (tasks, records, policies, tuner)."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from doubles import RandomModel, random_model_clock

from repro.config import SearchConfig, TrainConfig
from repro.core.analyzer import is_launchable
from repro.costmodel import GBDTModel, PaCM
from repro.hardware.device import get_device
from repro.hardware.measure import MeasureRunner
from repro.ir import ops
from repro.ir.partition import SubgraphTask
from repro.rng import make_rng
from repro.schedule import evolve as evolve_module
from repro.schedule import lower, random_config
from repro.schedule.batch import ConfigBatch, lower_batch
from repro.schedule.mutate import mutate_batch
from repro.schedule.sampler import random_batch
from repro.schedule.space import ScheduleConfig
from repro.search import (
    AnsorPolicy,
    GradientTaskScheduler,
    PrunerPolicy,
    RecordLog,
    Tuner,
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


def _one_row(task, rng):
    """A one-row lowered batch of a random config of ``task``."""
    return lower_batch(task.space, [random_config(task.space, rng)])


class TestRecordLog:
    def test_best_tracking(self, two_tasks, rng):
        log = RecordLog()
        task = two_tasks[0]
        for latency in (2e-3, 1e-3, 5e-3):
            log.add(task.key, _one_row(task, rng), latency, 0.0, 0)
        assert log.best_latency(task.key) == 1e-3
        assert log.best(task.key).latency == 1e-3

    def test_invalid_records_never_best(self, two_tasks, rng):
        log = RecordLog()
        task = two_tasks[0]
        log.add(task.key, _one_row(task, rng), math.inf, 0.0, 0)
        assert log.best(task.key) is None
        log.add(task.key, _one_row(task, rng), 1e-3, 0.0, 0)
        assert log.best_latency(task.key) == 1e-3

    def test_already_measured(self, two_tasks, rng):
        log = RecordLog()
        task = two_tasks[0]
        batch = _one_row(task, rng)
        log.add(task.key, batch, 1e-3, 0.0, 0)
        assert log.measured_rows(task.key) == set(batch.row_keys())
        assert log.measured_rows(two_tasks[1].key) == set()
        assert log.trials(task.key) == 1

    def test_best_configs_sorted_and_deduped(self, two_tasks, rng):
        log = RecordLog()
        task = two_tasks[0]
        batch = lower_batch(task.space, random_batch(task.space, rng, 3))
        log.add(task.key, batch, [3e-3, 1e-3, 2e-3], 0.0, 0)
        log.add(task.key, batch.take([1]), 5e-4, 1.0, 1)  # re-measured faster
        bests = log.best_configs(task.key, k=2)
        assert bests.row_keys() == [batch.row_keys()[1], batch.row_keys()[2]]
        assert log.best_configs(two_tasks[1].key) is None

    def test_time_to_reach(self):
        curve = [CurvePoint(10, 5, 3.0), CurvePoint(20, 10, 2.0), CurvePoint(30, 15, 1.0)]
        assert time_to_reach(curve, 2.5) == 20
        assert math.isinf(time_to_reach(curve, 0.5))


def _row_of(task_key: str, prog, latency: float, sim_time: float, round_index: int) -> dict:
    """A record row as the store has always written it."""
    config = prog.config
    return {
        "v": 1,
        "task_key": task_key,
        "workload_key": prog.workload.key,
        "config": {
            "tiles": [[axis, list(factors)] for axis, factors in config.tiles],
            "unroll": config.unroll,
            "vector": config.vector,
            "splitk": config.splitk,
        },
        "config_key": config.key,
        "latency": latency if math.isfinite(latency) else repr(latency),
        "sim_time": sim_time,
        "round_index": round_index,
    }


class _ReferenceLog:
    """The record log as a list of scalar records: Python ``sort``,
    dedup on ``ScheduleConfig.key``."""

    def __init__(self) -> None:
        self.records: list[tuple] = []  # (task key, program, latency, sim time, round)
        self.measured: dict[str, dict[str, object]] = {}  # task -> config key -> config

    def add(self, task_key, prog, latency, sim_time, round_index) -> None:
        self.records.append((task_key, prog, latency, sim_time, round_index))
        self.measured.setdefault(task_key, {}).setdefault(prog.config.key, prog.config)

    def seed_from(self, rows, spaces) -> int:
        added = 0
        for row in rows:
            if not isinstance(row, dict) or row.get("task_key") not in spaces:
                continue
            task_key, cfg = row["task_key"], row["config"]
            config = ScheduleConfig.from_map(
                {axis: tuple(factors) for axis, factors in cfg["tiles"]},
                unroll=cfg["unroll"], vector=cfg["vector"], splitk=cfg["splitk"],
            )
            if config.key in self.measured.get(task_key, {}):
                continue
            prog = lower(spaces[task_key], config)
            self.add(
                task_key, prog, float(row["latency"]), float(row["sim_time"]),
                int(row["round_index"]),
            )
            added += 1
        return added

    def best(self, task_key):
        best = None
        for record in self.records:
            if record[0] == task_key and math.isfinite(record[2]):
                if best is None or record[2] < best[2]:
                    best = record
        return best

    def best_configs(self, task_key, k) -> list[str]:
        finite = [r for r in self.records if r[0] == task_key and math.isfinite(r[2])]
        finite.sort(key=lambda r: r[2])
        keys: list[str] = []
        for r in finite:
            if r[1].config.key not in keys and len(keys) < k:
                keys.append(r[1].config.key)
        return keys

    def rows(self, start: int) -> list[dict]:
        return [_row_of(*record) for record in self.records[start:]]


_POOL_SIZE = 6
#: latencies a trial may take: ties and invalid ones included
_LATENCIES = (1e-3, 2e-3, 2e-3, 3e-3, math.inf)


@pytest.fixture(scope="module")
def reference_pools():
    tasks = make_tasks(
        [SubgraphTask(ops.matmul(64, 64, 64), 1), SubgraphTask(ops.conv2d(1, 8, 14, 14, 8, 3), 1)],
        get_device("a100"),
    )
    pools = [lower_batch(t.space, random_batch(t.space, make_rng(9), _POOL_SIZE)) for t in tasks]
    assert all(len(pool.configs.unique()) == _POOL_SIZE for pool in pools)
    return tasks, pools


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "seed"]),
        st.integers(0, 1),  # task
        st.lists(  # (pool row, latency choice) per logged row
            st.tuples(st.integers(0, _POOL_SIZE - 1), st.integers(0, len(_LATENCIES) - 1)),
            min_size=1,
            max_size=5,
        ),
    ),
    min_size=1,
    max_size=8,
)


class TestRecordLogAgainstReference:
    """The column log answers every query as the list of records did."""

    @given(ops_=_OPS, other_task=st.booleans())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_queries_match_a_list_of_records(self, reference_pools, ops_, other_task):
        tasks, pools = reference_pools
        spaces = {t.key: t.space for t in tasks}
        log, ref = RecordLog(), _ReferenceLog()
        for step, (op, t, picks) in enumerate(ops_):
            task, pool = tasks[t], pools[t]
            rows = np.array([row for row, _ in picks])
            latency = [_LATENCIES[choice] for _, choice in picks]
            if op == "add":
                log.add(task.key, pool.take(rows), latency, float(step), step)
                for row, lat in zip(rows, latency):
                    ref.add(task.key, pool.program(int(row)), lat, float(step), step)
            else:
                # seed rows interleave the two tasks and carry junk
                wire = []
                for row, lat in zip(rows, latency):
                    wire.append(_row_of(task.key, pool.program(int(row)), lat, float(step), step))
                    if other_task:
                        other = tasks[1 - t]
                        prog = pools[1 - t].program(int(row))
                        wire.append(_row_of(other.key, prog, lat, 0.5, step))
                wire += ["not a row", {"task_key": "no-such-task"}]
                wire = json.loads(json.dumps(wire))
                assert log.seed_from(wire, spaces) == ref.seed_from(wire, spaces)

        assert len(log) == len(ref.records)
        lats, keys = log.training_data()
        assert lats.tolist() == [r[2] for r in ref.records]
        assert keys == [r[0] for r in ref.records]
        for start in (0, len(ref.records) // 2, len(ref.records)):
            assert json.dumps(log.rows(start)) == json.dumps(ref.rows(start))
        for task in tasks:
            want = ref.best(task.key)
            got = log.best(task.key)
            if want is None:
                assert got is None and log.best_latency(task.key) == math.inf
            else:
                assert (got.prog, got.latency, got.sim_time, got.round_index) == want[1:]
                assert log.best_latency(task.key) == want[2]
            assert log.trials(task.key) == len(ref.measured.get(task.key, {}))
            configs = list(ref.measured.get(task.key, {}).values())
            want_rows = ConfigBatch.from_configs(task.space, configs).row_keys()
            assert log.measured_rows(task.key) == set(want_rows)
            for k in (1, 3, 8):
                seeds = log.best_configs(task.key, k)
                got_keys = [] if seeds is None else [c.key for c in seeds.configs()]
                assert got_keys == ref.best_configs(task.key, k)


def _propose(policy, records, rng):
    """One round's measurement batch as scalar programs."""
    batch = policy.propose_batch(records, rng)
    return [] if batch is None else [batch.program(i) for i in range(len(batch))]


class TestPolicies:
    @pytest.mark.parametrize("policy_cls", [AnsorPolicy, PrunerPolicy])
    def test_proposals_are_launchable_and_unique(self, policy_cls, two_tasks, a100):
        model = RandomModel()
        task = two_tasks[0]
        policy = policy_cls(task, model, search=SEARCH, clock=random_model_clock())
        records = RecordLog()
        progs = _propose(policy, records, make_rng(0))
        assert 0 < len(progs) <= SEARCH.measure_per_round
        keys = [p.config.key for p in progs]
        assert len(keys) == len(set(keys))
        assert all(is_launchable(p, a100) for p in progs)

    def test_no_remeasure(self, two_tasks, a100):
        task = two_tasks[0]
        policy = PrunerPolicy(
            task, RandomModel(), search=SEARCH, clock=random_model_clock()
        )
        records = RecordLog()
        batch = policy.propose_batch(records, make_rng(0))
        records.add(task.key, batch, 1e-3, 0.0, 0)
        second = _propose(policy, records, make_rng(1))
        measured = {batch.program(i).config.key for i in range(len(batch))}
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
            batch = policy.propose_batch(records, make_rng(0))
            records.add(task.key, batch, 1e-3, 0.0, 0)
            features = model.featurize_batch(batch)
            model.fit(features, *records.training_data(), train=TrainConfig(epochs=2))
            clock_before = clock.elapsed(EXPLORATION)
            policy.propose_batch(records, make_rng(1))
            results[name] = clock.elapsed(EXPLORATION) - clock_before
        assert results["pruner"] < results["ansor"]

    def test_a_generation_with_nothing_launchable_is_redrawn(self, a100):
        """A warm Ansor round on a device that launches no row breeds
        nothing: each of its ``ga_steps`` generations is a fresh random
        batch, and no candidate is left to propose."""
        device = dataclasses.replace(a100, name="no-threads", max_threads_per_block=0)
        task = TuningTask.create(ops.matmul(256, 256, 256), device)
        records = RecordLog()
        measured = lower_batch(task.space, random_batch(task.space, make_rng(60), 4))
        records.add(task.key, measured, 1e-3 * np.arange(1, 5), 0.0, 0)
        policy = AnsorPolicy(task, RandomModel(), search=SEARCH, clock=random_model_clock())
        rng = make_rng(61)
        assert policy.propose_batch(records, rng) is None

        # by hand: the seeded population, then one random batch a generation
        hand = make_rng(61)
        size = SEARCH.population
        seeds = records.best_configs(task.key, k=8)
        evolve_module.seeded_population(task.space, hand, size, seeds, max(1, size // 16))
        for _ in range(SEARCH.ga_steps):
            random_batch(task.space, hand, size)
        assert rng.integers(2**63) == hand.integers(2**63)


class TestSeededPopulation:
    """``schedule.evolve.seeded_population`` with the arguments
    ``AnsorPolicy`` passes (the log's best eight, ``population // 16``
    mutation batches) draws only the mutation batches of which a row
    survives the cap."""

    @staticmethod
    def _setup(monkeypatch, a100, workload, population, n_seeds):
        task = TuningTask.create(workload, a100)
        records = RecordLog()
        seeds = lower_batch(task.space, random_batch(task.space, make_rng(50), n_seeds))
        records.add(task.key, seeds, 1e-3 * np.arange(1, len(seeds) + 1), 0.0, 0)
        drawn: list[ConfigBatch] = []

        def counting(batch, space, rng):
            drawn.append(mutate_batch(batch, space, rng))
            return drawn[-1]

        monkeypatch.setattr(evolve_module, "mutate_batch", counting)
        got = evolve_module.seeded_population(
            task.space,
            make_rng(51),
            population,
            records.best_configs(task.key, k=8),
            max(1, population // 16),
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
        records.add(t0.key, _one_row(t0, rng), 1e-3, 0.0, 0)
        sched.notify(t0, records)
        assert sched.select(records).key == two_tasks[1].key

    def test_warmup_skips_a_task_the_seeded_log_covers(self, two_tasks, rng):
        """A chain of one-round warm-started jobs must reach the second task."""
        t0, t1 = two_tasks
        records = RecordLog()
        records.add(t0.key, _one_row(t0, rng), 1e-3, 0.0, 0)
        assert GradientTaskScheduler(two_tasks).select(records).key == t1.key

    def test_warmup_follows_task_order_on_an_empty_log(self, two_tasks, rng):
        sched = GradientTaskScheduler(two_tasks)
        records = RecordLog()
        picked = []
        for _ in two_tasks:
            task = sched.select(records)
            picked.append(task.key)
            records.add(task.key, _one_row(task, rng), 1e-3, 0.0, 0)
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
        task = two_tasks[0]
        rng = make_rng(2)
        rows = lower_batch(task.space, [random_config(task.space, rng) for _ in range(8)])
        features = model.featurize_batch(rows)
        model.fit(features, np.full(8, 1e-3), [task.key] * 8, train=TrainConfig(epochs=1))
        adapter = MomentumAdapter(model.get_params())
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


class _TrainingSpy:
    """Counts the rows a model encodes outside ``predict_batch`` (the
    training rows), keeps a copy of every ``fit``'s arguments, and the
    log length of every ``RecordLog.training_data`` call (``logged``,
    filled by the ``spies`` fixture)."""

    def __init__(self, model):
        self.model = model
        self.encoded = 0
        self.fits: list[tuple[np.ndarray, np.ndarray, list[str]]] = []
        self.logged: list[int] = []
        self._featurize = model.featurize_batch
        predict, fit = model.predict_batch, model.fit
        scoring = []

        def featurize_batch(batch):
            if not scoring:
                self.encoded += len(batch)
            return self._featurize(batch)

        def predict_batch(batch):
            scoring.append(True)
            try:
                return predict(batch)
            finally:
                scoring.pop()

        def fit_(features, latencies, keys, *args, **kwargs):
            self.fits.append((features.copy(), np.array(latencies), list(keys)))
            return fit(features, latencies, keys, *args, **kwargs)

        model.featurize_batch = featurize_batch
        model.predict_batch = predict_batch
        model.fit = fit_

    def oracle(self, records: RecordLog) -> np.ndarray:
        """The log re-encoded row by row: what fit used to see."""
        return np.concatenate(
            [
                self._featurize(b.program(i).row)
                for b in records.batches()
                for i in range(len(b))
            ]
        )


class TestTrainingMatrix:
    """The tuner encodes each measured row once.  Where the weights carry
    over between fits (online / finetune NN models), ``fit`` gets the
    rows of exactly the tasks whose row count changed since the last
    fit, in log order, and the first fit gets the whole log; GBDT and
    MoA get the whole log every time."""

    ROUNDS = 4

    @pytest.fixture(scope="class")
    def subs(self):
        from repro.workloads import network_tasks

        return network_tasks("resnet50", top_k=3)

    @pytest.fixture(scope="class")
    def pretrained(self, subs):
        from repro import api

        return api.pretrain_model(PaCM(), subs, "a100", samples_per_task=20)

    @pytest.fixture
    def spies(self, monkeypatch):
        from repro import api

        spies = []
        make = api.MethodSpec.new_model
        training_data = RecordLog.training_data

        def new_model(spec, seed):
            model = make(spec, seed)
            spies.append(_TrainingSpy(model))
            return model

        def logged_training_data(log):
            lats, keys = training_data(log)
            spies[-1].logged.append(len(lats))
            return lats, keys

        monkeypatch.setattr(api.MethodSpec, "new_model", new_model)
        monkeypatch.setattr(RecordLog, "training_data", logged_training_data)
        return spies

    def _tune(self, method, subs, **kwargs):
        from repro import api

        return api.tune_subgraphs(
            method, subs, "a100", rounds=self.ROUNDS, scale="smoke", **kwargs
        )

    def _assert_fits(self, spy, records, whole_log):
        """Replay every ``training_data`` call against the final log."""
        from collections import Counter

        from repro.search.tuner import MIN_TRAIN_RECORDS

        logged = list(spy.logged)
        lats, keys = records.training_data()
        keys = np.array(keys)
        oracle = spy.oracle(records)
        assert spy.encoded == len(records)
        expected, fitted = [], {}  # (log length, rows fit must get) per fit
        for n in logged:
            counts = Counter(keys[:n].tolist())
            changed = [k for k, c in counts.items() if whole_log or fitted.get(k) != c]
            if n < MIN_TRAIN_RECORDS or not changed:
                continue  # nothing new: no fit
            expected.append((n, np.flatnonzero(np.isin(keys[:n], changed))))
            fitted = counts
        assert len(spy.fits) == len(expected) > 1
        for (features, fit_lats, fit_keys), (_, rows) in zip(spy.fits, expected):
            assert np.array_equal(features, oracle[rows])
            assert np.array_equal(fit_lats, lats[rows])
            assert fit_keys == keys[rows].tolist()
        # the first fit trains every group
        assert len(spy.fits[0][0]) == expected[0][0]
        trained = sum(len(features) for features, _, _ in spy.fits)
        if whole_log:
            assert trained == sum(n for n, _ in expected)
        else:  # the saving is real: some fit left an unchanged group out
            assert trained < sum(n for n, _ in expected)

    @pytest.mark.parametrize("method", ["pruner", "pruner-finetune", "ansor", "moa-pruner"])
    def test_each_row_is_encoded_once(self, method, subs, pretrained, spies):
        from repro import api

        kwargs = {"pretrained": pretrained} if method in api.PRETRAINED_METHODS else {}
        result = self._tune(method, subs, **kwargs)
        (spy,) = spies
        # GBDT refits from scratch; MoA resets to the siamese before a fit
        self._assert_fits(spy, result.records, whole_log=method in ("ansor", "moa-pruner"))

    def test_a_seeded_log_is_encoded_once(self, subs, spies):
        from repro import api
        from repro.service.store import rows_to_records

        first = self._tune("pruner", subs)
        tasks = api.tasks_for("pruner", subs, get_device("a100"))
        tuner = api.build_tuner(
            "pruner", subs, "a100", search=api.resolve_scale("smoke"), seed=1,
            tasks=tasks,
            initial_records=rows_to_records(
                first.records.rows(), {t.key: t.space for t in tasks}
            ),
        )
        result = tuner.tune(self.ROUNDS)
        assert result.seeded_trials > 0
        self._assert_fits(spies[1], result.records, whole_log=False)

    def test_the_clock_charges_what_fit_got(self, subs, spies):
        """Training is charged per row passed to ``fit`` x epochs; a round
        with no new rows neither fits nor charges; the checkpoint rank
        stays the whole log."""
        from repro import api
        from repro.timemodel import TRAINING

        tuner = api.build_tuner("pruner", subs, "a100", search=api.resolve_scale("smoke"))
        result = tuner.tune(self.ROUNDS)
        (spy,) = spies
        per_row = tuner.clock.costs.model_train[tuner.model.kind]
        epochs = tuner.train.epochs
        charged = sum(per_row * len(features) * epochs for features, _, _ in spy.fits)
        assert tuner.clock.breakdown()[TRAINING] == charged > 0
        assert len(spy.fits[-1][0]) < len(result.records)
        assert tuner.model_trained_on == len(result.records)

        fits = len(spy.fits)
        tuner.step(max_trials=0)  # a round that measures nothing
        assert len(tuner.records) == len(result.records)
        assert len(spy.fits) == fits
        assert tuner.clock.breakdown()[TRAINING] == charged
        assert tuner.model_trained_on == len(result.records)

    def test_an_offline_run_encodes_nothing_for_training(self, subs, pretrained, spies):
        result = self._tune("pruner-offline", subs, pretrained=pretrained)
        (spy,) = spies
        assert len(result.records) > 0
        assert spy.encoded == 0 and spy.fits == []
