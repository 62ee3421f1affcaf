"""Tests for the tuning service: record store, job queue, and the job
engine drained in process (``repro.serve.engine`` + ``runner.drain``)."""

from __future__ import annotations

import io
import json
import math
import signal

import pytest
from test_serve import drain_with_threads

from repro import api
from repro.errors import ScheduleError, SearchError
from repro.ir import ops
from repro.ir.partition import SubgraphTask
from repro.rng import make_rng
from repro.schedule import lower, random_config
from repro.schedule.batch import ConfigBatch
from repro.schedule.lower import lowered_count
from repro.search import RecordLog, TuningRecord, make_tasks
from repro.serve.cli import _graceful_drain
from repro.serve.cli import main as cli_main
from repro.serve.engine import LEDGER_NAME, JobEngine
from repro.serve.protocol import ServeError, unwire_float, wire_float
from repro.serve.runner import TuningRunner, drain
from repro.service import (
    JobQueue,
    JobState,
    RecordStore,
    StoreKey,
    TuneJob,
    store_key_for_tasks,
)
from repro.service.store import rows_to_records


SMOKE = dict(rounds=2, scale="smoke", top_k_tasks=1)


@pytest.fixture
def matmul_task(a100):
    (task,) = make_tasks([SubgraphTask(ops.matmul(128, 128, 128), 2)], a100)
    return task


def _records(task, rng, latencies, start_round=0):
    out = []
    for i, latency in enumerate(latencies):
        prog = lower(task.space, random_config(task.space, rng))
        out.append(
            TuningRecord(task.key, prog, latency, float(i), start_round + i)
        )
    return out


class TestRecordSerialization:
    def test_dict_round_trip_exact(self, matmul_task, rng):
        (rec,) = _records(matmul_task, rng, [1.2345678901234567e-4])
        back = TuningRecord.from_dict(rec.to_dict(), matmul_task.space)
        assert back == rec  # frozen dataclasses: exact field equality

    def test_inf_latency_round_trips(self, matmul_task, rng):
        (rec,) = _records(matmul_task, rng, [math.inf])
        data = json.loads(json.dumps(rec.to_dict()))  # through real JSON
        back = TuningRecord.from_dict(data, matmul_task.space)
        assert math.isinf(back.latency)
        assert back == rec

    def test_store_round_trip_preserves_bests_and_dedup(
        self, matmul_task, rng, tmp_path
    ):
        latencies = [3e-3, 1e-3, math.inf, 2e-3]
        records = _records(matmul_task, rng, latencies)
        store = RecordStore(tmp_path)
        key = store_key_for_tasks([matmul_task], "pruner")
        assert store.append(key, records) == len(records)
        # appending the same records again writes nothing
        assert store.append(key, records) == 0
        assert store.count(key) == len(records)

        loaded = store.load_records(key, {matmul_task.key: matmul_task.space})
        assert sorted(r.latency for r in loaded) == sorted(latencies)

        log = RecordLog()
        log.extend(loaded)
        assert log.best_latency(matmul_task.key) == 1e-3
        for rec in records:
            assert log.already_measured(matmul_task.key, rec.prog.config.key)

    def test_unknown_task_and_newer_schema_rows_skipped(
        self, matmul_task, rng, tmp_path
    ):
        records = _records(matmul_task, rng, [1e-3])
        store = RecordStore(tmp_path)
        key = store_key_for_tasks([matmul_task], "pruner")
        store.append(key, records)
        with store.path_for(key).open("a") as fh:
            future = records[0].to_dict()
            future["v"] = 999
            fh.write(json.dumps(future) + "\n")
            fh.write("not json at all\n")
        loaded = store.load_records(key, {matmul_task.key: matmul_task.space})
        assert len(loaded) == 1
        assert store.load_records(key, {}) == []

    def test_best_row_ignores_invalid(self, matmul_task, rng, tmp_path):
        store = RecordStore(tmp_path)
        key = store_key_for_tasks([matmul_task], "pruner")
        store.append(key, _records(matmul_task, rng, [math.inf, 5e-3, 2e-3]))
        rows = store.rows_by_task(key)[matmul_task.key]  # best first
        assert [float(row["latency"]) for row in rows] == [2e-3, 5e-3]

    def test_store_keys_index(self, matmul_task, rng, tmp_path):
        store = RecordStore(tmp_path)
        for method in ("pruner", "ansor"):
            key = store_key_for_tasks([matmul_task], method)
            store.append(key, _records(matmul_task, rng, [1e-3]))
        assert {k.method for k in store.keys()} == {"pruner", "ansor"}
        stats = RecordStore(tmp_path).stats()  # fresh instance, from disk
        assert len(stats) == 2
        assert all(entry["records"] == 1 for entry in stats)


def _per_row_loop(rows, spaces):
    """``rows_to_records`` before it lowered a task's rows as one batch."""
    out = []
    for row in rows:
        space = spaces.get(row.get("task_key"))
        if space is None:
            continue
        try:
            out.append(TuningRecord.from_dict(row, space))
        except (ScheduleError, KeyError, TypeError, ValueError):
            continue
    return out


def _with_tiles(row, change):
    """A copy of ``row`` whose config went through ``change(tiles, config)``."""
    twin = json.loads(json.dumps(row))
    change(twin["config"]["tiles"], twin["config"])
    twin["config_key"] = "edited:" + row["config_key"]  # a second store identity
    return twin


def _floats(tiles, config):
    tiles[:] = [[axis, [float(f) for f in factors]] for axis, factors in tiles]


def _half(tiles, config):
    tiles[0][1][0] += 0.5


def _strings(tiles, config):
    tiles[:] = [[axis, [str(f) for f in factors]] for axis, factors in tiles]


def _unroll(tiles, config):
    config["unroll"] += 0.7


NON_INTEGER_ROWS = [
    pytest.param(_floats, id="64.0"),
    pytest.param(_half, id="64.5"),
    pytest.param(_strings, id="'64'"),
    pytest.param(_unroll, id="unroll-16.7"),
]


class TestRowsToRecords:
    @pytest.fixture
    def two_tasks(self, a100):
        return make_tasks(
            [
                SubgraphTask(ops.matmul(128, 128, 128), 2),
                SubgraphTask(ops.conv2d(1, 16, 14, 14, 32, 3), 1),
            ],
            a100,
        )

    def _rows(self, tasks, n=50):
        rng = make_rng(7)
        rows = []
        for i in range(n):
            task = tasks[i % 3 == 0]  # interleaved, two thirds on the first
            (rec,) = _records(task, rng, [1e-3 * (i + 1)], start_round=i)
            rows.append(json.loads(json.dumps(rec.to_dict())))
        return rows

    def test_good_rows_are_lowered_once_a_task(self, two_tasks, monkeypatch):
        """50 rows of two tasks: two ``lower_batch`` calls, 50 lowered
        rows (a second, per-record lowering would make it 100)."""
        from repro.service import store

        rows = self._rows(two_tasks)
        spaces = {t.key: t.space for t in two_tasks}
        calls = []
        real = store.lower_batch
        monkeypatch.setattr(
            store,
            "lower_batch",
            lambda space, configs: calls.append(len(configs)) or real(space, configs),
        )
        before = lowered_count()
        records = rows_to_records(rows, spaces)
        assert lowered_count() - before == len(rows) == 50
        assert sorted(calls) == [17, 33]
        assert [r.to_dict() for r in records] == rows

    def test_bad_rows_are_skipped_alone_and_order_is_kept(self, two_tasks):
        """A stale config, an unknown task, a garbage row and a duplicate
        in the middle: exactly the rows the per-row loop keeps."""
        rows = self._rows(two_tasks)
        spaces = {t.key: t.space for t in two_tasks}
        stale = json.loads(json.dumps(rows[10]))
        stale["config"]["tiles"][0][1][0] *= 3  # product != extent now
        unknown = dict(rows[11], task_key="no-such-task")
        garbage = {"task_key": rows[12]["task_key"], "config": "nope", "latency": "x"}
        no_latency = {k: v for k, v in rows[13].items() if k != "latency"}
        rows[20:20] = [stale, unknown, garbage, no_latency, rows[5]]
        got = rows_to_records(rows, spaces)
        assert got == _per_row_loop(rows, spaces)
        assert len(got) == 51  # the 50 and the duplicate
        assert [r.round_index for r in got[:21]] == list(range(20)) + [5]

    @pytest.mark.parametrize("change", NON_INTEGER_ROWS)
    def test_non_integer_config_values_skip_the_row(self, matmul_task, rng, change):
        """``64.0`` used to come back as a second identity of the same
        schedule (``i:64.0x...``), ``16.7`` as 16, and ``64.5`` was cut
        to a valid 64 on its way into a batch."""
        (rec,) = _records(matmul_task, rng, [1e-3])
        row = json.loads(json.dumps(rec.to_dict()))
        twin = _with_tiles(row, change)
        spaces = {matmul_task.key: matmul_task.space}
        assert rows_to_records([row, twin], spaces) == [rec]
        with pytest.raises((TypeError, ScheduleError)):
            TuningRecord.from_dict(twin, matmul_task.space)
        log = RecordLog()
        assert log.seed_from(rows_to_records([twin, row, twin], spaces)) == 1

    def test_from_configs_refuses_what_it_would_truncate(self, matmul_space):
        config = random_config(matmul_space, make_rng(0))
        (axis, factors), *_ = config.tiles
        for bad in (
            config.with_tile(axis, (factors[0] + 0.5, *factors[1:])),
            config.with_tile(axis, tuple(float(f) for f in factors)),
            config.with_annotations(unroll=16.7),
        ):
            with pytest.raises(ScheduleError):
                ConfigBatch.from_configs(matmul_space, [bad])
            with pytest.raises(ScheduleError):
                lower(matmul_space, bad)


class TestIndexRepair:
    def test_append_repairs_damaged_index_entry(self, matmul_task, rng, tmp_path):
        """A non-dict index entry must not break keys(): the next append
        replaces it with the full key identity."""
        store = RecordStore(tmp_path)
        key = store_key_for_tasks([matmul_task], "pruner")
        store.append(key, _records(matmul_task, rng, [1e-3]))
        index_path = store._index_path()
        index_path.write_text(json.dumps({key.filename: 5}))  # hand-damaged
        assert store.keys() == []  # damaged entry skipped, not raised
        store.append(key, _records(matmul_task, rng, [2e-3]))
        assert store.keys() == [key]  # repaired with the full identity
        assert store.count(key) == 2


class TestRecordLogExtend:
    def test_extend_accepts_any_iterable(self, matmul_task, rng):
        records = _records(matmul_task, rng, [2e-3, 1e-3])
        log = RecordLog()
        log.extend(iter(records))  # a generator, not a list
        assert len(log) == 2
        assert log.best_latency(matmul_task.key) == 1e-3

    def test_seed_from_dedups(self, matmul_task, rng):
        records = _records(matmul_task, rng, [2e-3, 1e-3])
        log = RecordLog()
        assert log.seed_from(records) == 2
        assert log.seed_from(records) == 0
        assert len(log) == 2


class TestScaleValidation:
    def test_tune_subgraphs_unknown_scale(self):
        subs = [SubgraphTask(ops.matmul(64, 64, 64), 1)]
        with pytest.raises(SearchError, match="smoke"):
            api.tune_subgraphs("pruner", subs, "a100", scale="bogus")

    def test_tune_network_unknown_scale(self):
        with pytest.raises(SearchError, match="valid scales"):
            api.tune_network("bert_tiny", scale="nope")

    def test_unknown_method_rejected(self, tmp_path):
        subs = [SubgraphTask(ops.matmul(64, 64, 64), 1)]
        with pytest.raises(SearchError, match="valid methods"):
            api.tune_subgraphs("ansr", subs, "a100", scale="smoke")
        with pytest.raises(SearchError, match="valid methods"):
            JobEngine(tmp_path).submit("bert_tiny", method="ansr")

    def test_pretrained_methods_rejected_at_submit(self, tmp_path):
        """Jobs cannot carry pretrained params, so offline/finetune/MoA
        methods must fail at submit, not inside every runner attempt."""
        with pytest.raises(SearchError, match="pretrained"):
            JobEngine(tmp_path).submit("bert_tiny", method="tlp")


class TestSchemaMigration:
    def test_unmigratable_and_newer_rows_kept_as_is(
        self, matmul_task, rng, tmp_path
    ):
        (rec,) = _records(matmul_task, rng, [1e-3])
        store = RecordStore(tmp_path)
        key = store_key_for_tasks([matmul_task], "pruner")
        store.root.mkdir(parents=True, exist_ok=True)
        future = rec.to_dict()
        future["v"] = 999
        unversioned = {"time": 1e-3}  # no ``v``: not this schema either
        with store.path_for(key).open("w") as fh:
            fh.write(json.dumps(future) + "\n")
            fh.write(json.dumps(unversioned) + "\n")
        before = store.path_for(key).read_bytes()
        assert store.load_rows(key) == []  # neither is loadable here
        # ...but both survive on disk untouched: a read never rewrites
        assert store.path_for(key).read_bytes() == before

    def test_append_rows_wire_ingest(self, matmul_task, rng, tmp_path):
        records = _records(matmul_task, rng, [2e-3, 1e-3])
        rows = [r.to_dict() for r in records]
        store = RecordStore(tmp_path)
        key = store_key_for_tasks([matmul_task], "pruner")
        assert store.append_rows(key, rows) == 2
        assert store.append_rows(key, rows) == 0  # dedup on identity
        assert store.append_rows(key, [{"latency": 1.0}]) == 0  # no identity
        loaded = store.load_records(key, {matmul_task.key: matmul_task.space})
        assert sorted(r.latency for r in loaded) == [1e-3, 2e-3]


    def test_append_after_torn_tail_starts_a_fresh_line(
        self, matmul_task, rng, tmp_path
    ):
        """A crash leaves half a row with no newline; the next append
        must not glue its first row onto it."""
        rows = [r.to_dict() for r in _records(matmul_task, rng, [4e-3, 3e-3, 2e-3, 1e-3])]
        store = RecordStore(tmp_path)
        key = store_key_for_tasks([matmul_task], "pruner")
        assert store.append_rows(key, rows[:2]) == 2
        with store.path_for(key).open("a") as fh:
            fh.write(json.dumps(rows[2])[:40])  # crash mid-write
        assert store.append_rows(key, rows[2:]) == 2
        assert store.load_rows(key) == rows
        # every written row is visible to dedup: nothing is appended twice
        assert store.append_rows(key, rows) == 0


class TestJobQueue:
    def test_priority_then_fifo(self):
        queue = JobQueue()
        queue.submit(TuneJob("bert_tiny", priority=0))
        high = queue.submit(TuneJob("gpt2", priority=5))
        queue.submit(TuneJob("llama", priority=0))
        assert queue.claim().job_id == high
        assert queue.claim().network == "bert_tiny"  # FIFO among equal priority
        assert queue.claim().network == "llama"
        assert queue.claim() is None

    def test_claim_predicate_skips_non_matching(self):
        """Tag-aware leasing: a constrained claim skips jobs it cannot
        take; the skipped jobs keep their place and stay claimable."""
        queue = JobQueue()
        t4 = queue.submit(TuneJob("bert_tiny", device="t4", priority=5))
        a100 = queue.submit(TuneJob("gpt2", device="a100"))
        only_a100 = lambda job: job.device == "a100"  # noqa: E731
        job = queue.claim(runner_id="gpu-a", predicate=only_a100)
        assert job.job_id == a100  # the higher-priority t4 job was skipped
        assert queue.claim(runner_id="gpu-a", predicate=only_a100) is None
        skipped = queue.get(t4)
        assert skipped.state is JobState.PENDING
        assert skipped.attempts == 0  # skipping is not an attempt
        assert queue.claim(runner_id="anyone").job_id == t4

    def test_claim_predicate_preserves_priority_order(self):
        queue = JobQueue()
        low = queue.submit(TuneJob("bert_tiny", device="t4", priority=0))
        high = queue.submit(TuneJob("gpt2", device="t4", priority=9))
        other = queue.submit(TuneJob("llama", device="a100", priority=5))
        only_t4 = lambda job: job.device == "t4"  # noqa: E731
        assert queue.claim(predicate=only_t4).job_id == high
        assert queue.claim(predicate=only_t4).job_id == low
        assert queue.claim(predicate=only_t4) is None
        assert queue.claim().job_id == other  # unconstrained sees the rest

    def test_retry_then_fail(self):
        queue = JobQueue()
        job_id = queue.submit(TuneJob("bert_tiny", max_retries=1))
        job = queue.claim()
        queue.mark_failed(job_id, "boom")
        assert queue.get(job_id).state is JobState.PENDING  # retry budget left
        job = queue.claim()
        assert job.attempts == 2
        queue.mark_failed(job_id, "boom again")
        assert queue.get(job_id).state is JobState.FAILED
        assert queue.claim() is None
        assert queue.get(job_id).error == "boom again"

    def test_requeue_keeps_submission_order(self):
        """Regression: equal-priority tie-break is submission order — a
        requeued job resumes its original slot, not the back of the line."""
        queue = JobQueue()
        first = queue.submit(TuneJob("bert_tiny"))
        queue.submit(TuneJob("gpt2"))
        assert queue.claim().job_id == first
        queue.mark_failed(first, "transient")  # requeued (retry budget left)
        # submission order says bert_tiny still goes before gpt2
        assert queue.claim().job_id == first

    def test_cancel_pending_is_immediate(self):
        queue = JobQueue()
        job_id = queue.submit(TuneJob("bert_tiny"))
        assert queue.cancel(job_id) is JobState.CANCELLED
        assert queue.claim() is None  # stale heap entry is skipped
        assert queue.counts()["cancelled"] == 1

    def test_cancel_running_is_cooperative(self):
        queue = JobQueue()
        job_id = queue.submit(TuneJob("bert_tiny"))
        queue.claim()
        assert queue.cancel(job_id) is JobState.RUNNING  # flag only
        assert queue.cancel_requested(job_id)
        queue.mark_done(job_id)  # worker reached its stop point
        assert queue.get(job_id).state is JobState.CANCELLED

    def test_release_refunds_attempt(self):
        queue = JobQueue()
        job_id = queue.submit(TuneJob("bert_tiny"))
        job = queue.claim(runner_id="r1")
        assert job.attempts == 1 and job.runner_id == "r1"
        queue.release(job_id)  # lease expired: not the job's fault
        job = queue.get(job_id)
        assert job.state is JobState.PENDING
        assert job.attempts == 0 and job.runner_id is None
        assert queue.claim().job_id == job_id  # claimable again

    def test_release_honors_pending_cancel(self):
        queue = JobQueue()
        job_id = queue.submit(TuneJob("bert_tiny"))
        queue.claim()
        queue.cancel(job_id)
        queue.release(job_id)
        assert queue.get(job_id).state is JobState.CANCELLED
        assert queue.claim() is None

    def test_close_stops_claims_keeps_pending(self):
        queue = JobQueue()
        queue.submit(TuneJob("bert_tiny"))
        queue.close()
        assert queue.claim() is None
        assert queue.counts()["pending"] == 1  # requeueable in the ledger

    def test_restore_requeues_running(self, tmp_path):
        queue = JobQueue()
        running_id = queue.submit(TuneJob("bert_tiny"))
        queue.submit(TuneJob("gpt2"))
        done_id = queue.submit(TuneJob("llama"))
        queue.claim()  # bert_tiny -> running (then the process "dies")
        for _ in range(2):
            queue.claim()
        queue.mark_done(done_id)
        queue.append_ledger(tmp_path / "jobs.jsonl", [j.job_id for j in queue.jobs()])

        fresh = JobQueue()
        claimable = fresh.restore(JobQueue.load_ledger(tmp_path / "jobs.jsonl"))
        assert claimable == 2
        assert fresh.get(running_id).state is JobState.PENDING
        # the crashed claim's attempt is refunded (like release())
        assert fresh.get(running_id).attempts == 0
        assert fresh.get(done_id).state is JobState.DONE
        # submission order survives the round trip
        assert fresh.claim().job_id == running_id

    def test_deterministic_seed_from_spec(self):
        a = TuneJob("bert_tiny", device="t4", rounds=4)
        b = TuneJob("bert_tiny", device="t4", rounds=4)
        c = TuneJob("bert_tiny", device="a100", rounds=4)
        assert a.seed == b.seed
        assert a.seed != c.seed

    def test_ledger_round_trip(self, tmp_path):
        queue = JobQueue()
        queue.submit(TuneJob("bert_tiny", rounds=3))
        queue.mark_done(queue.claim().job_id)
        queue.append_ledger(tmp_path / "jobs.jsonl", [j.job_id for j in queue.jobs()])
        (job,) = JobQueue.load_ledger(tmp_path / "jobs.jsonl")
        assert job.network == "bert_tiny"
        assert job.state is JobState.DONE


def _drain(engine, workers: int = 1) -> dict[str, str]:
    """Drain in process; returns job id -> state."""
    drain(engine) if workers == 1 else drain_with_threads(engine, workers)
    return {job["job_id"]: job["state"] for job in engine.jobs()}


class TestWorkerPool:
    def test_retries_run_through_pool(self, tmp_path, monkeypatch):
        """A job whose attempt raises is failed back and re-leased until
        its retry budget is spent — never stranded, even though the
        other worker found the queue empty and left long ago."""
        engine = JobEngine(tmp_path)
        job_id = engine.submit("bert_tiny", max_retries=2, **SMOKE)
        calls = []
        real_tune = TuningRunner._tune

        def flaky(self, job, *args, **kwargs):
            calls.append(job.attempts)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return real_tune(self, job, *args, **kwargs)

        monkeypatch.setattr(TuningRunner, "_tune", flaky)
        assert _drain(engine, workers=2) == {job_id: "done"}
        assert calls == [1, 2, 3]
        assert engine.result(job_id)["fresh_trials"] > 0


class TestWarmStart:
    def test_second_submit_reuses_records(self, tmp_path):
        """Acceptance: same workload twice through the engine, shared
        cache — run 2 loads run 1's records, is no worse, measures less."""
        spec = dict(device="a100", rounds=3, scale="smoke", top_k_tasks=1)
        first_engine = JobEngine(tmp_path)
        first_id = first_engine.submit("bert_tiny", **spec)
        _drain(first_engine)
        first = first_engine.result(first_id)
        assert first["fresh_trials"] > 0
        assert first["seeded_trials"] == 0

        second_engine = JobEngine(tmp_path)  # a restart, same cache dir
        # results.jsonl: the first run's summary survived the restart
        assert second_engine.result(first_id) == first
        second_id = second_engine.submit("bert_tiny", **spec)
        _drain(second_engine)
        second = second_engine.result(second_id)
        assert second["seeded_trials"] > 0  # loaded run 1's records
        assert second["fresh_trials"] < first["fresh_trials"]
        assert unwire_float(second["final_latency"]) <= unwire_float(
            first["final_latency"]
        )
        for key, best in first["best"].items():
            assert second["best"][key] <= best

    @pytest.mark.parametrize("change", NON_INTEGER_ROWS)
    def test_non_integer_seed_rows_are_not_seeded(self, tmp_path, change):
        """A stored row whose numbers are not integers rides the lease
        like any other and is dropped by the runner: the schedule it
        restates is seeded, and charged to the trial budget, once."""
        spec = dict(device="a100", rounds=1, scale="smoke", top_k_tasks=1)
        engine = JobEngine(tmp_path)
        engine.submit("bert_tiny", **spec)
        _drain(engine)
        (key,) = engine.store.keys()
        rows = engine.store.load_rows(key)
        assert engine.store.append_rows(key, [_with_tiles(rows[0], change)]) == 1

        again = JobEngine(tmp_path)
        job_id = again.submit("bert_tiny", **spec)
        assert len(again.store.load_rows(key)) == len(rows) + 1  # the lease's seed rows
        _drain(again)
        assert again.result(job_id)["seeded_trials"] == len(rows)

    @staticmethod
    def _fresh_trials_to(result, target):
        """Trials measured *in this run* before the curve reached target."""
        for point in result["curve"]:
            if unwire_float(point["latency"]) <= target:
                return point["trials"] - result["seeded_trials"]
        return math.inf

    def test_checkpoint_warm_start_reaches_best_in_fewer_trials(self, tmp_path):
        """Acceptance: the second run of the same task loads the stored
        cost-model checkpoint (no cold retrain from round 0) and
        reaches the first run's best latency in strictly fewer measured
        trials."""
        spec = dict(device="a100", rounds=4, scale="smoke", top_k_tasks=1)
        first_engine = JobEngine(tmp_path)
        first_id = first_engine.submit("bert_tiny", **spec)
        _drain(first_engine)
        first = first_engine.result(first_id)
        assert not first["warm_model"]  # nothing to restore on a cold store
        # the trained model was checkpointed at job completion
        (entry,) = first_engine.models.stats()
        assert entry["kind"] == "pacm"
        assert entry["trained_trials"] == first["total_trials"]

        second_engine = JobEngine(tmp_path)
        second_id = second_engine.submit("bert_tiny", **spec)
        _drain(second_engine)
        second = second_engine.result(second_id)
        assert second["warm_model"]  # restored, not retrained from round 0
        target = unwire_float(first["final_latency"])
        assert self._fresh_trials_to(second, target) < self._fresh_trials_to(
            first, target
        )

    def test_no_model_cache_flag_skips_checkpoints(self, tmp_path):
        """``checkpoints=False`` (``--no-checkpoints``): nothing shipped,
        nothing stored; records still seed."""
        spec = dict(device="a100", rounds=2, scale="smoke", top_k_tasks=1)
        engine = JobEngine(tmp_path, checkpoints=False)
        engine.submit("bert_tiny", **spec)
        _drain(engine)
        assert engine.models.stats() == []
        warm = JobEngine(tmp_path)  # checkpoints back on
        warm_id = warm.submit("bert_tiny", **spec)
        _drain(warm)
        result = warm.result(warm_id)
        assert result["seeded_trials"] > 0
        assert not result["warm_model"]  # nothing was stored
        assert warm.models.stats() != []  # ...but this run checkpointed


class TestMultiWorker:
    def test_four_workers_match_single_process(self, tmp_path):
        """Acceptance: a 4-worker drain completes >= 4 jobs and each
        job's best latencies match api.tune_network for the same seed."""
        specs = [
            ("bert_tiny", "a100"),
            ("bert_tiny", "t4"),
            ("gpt2", "a100"),
            ("gpt2", "t4"),
        ]
        engine = JobEngine(tmp_path / "svc")
        ids = {
            engine.submit(
                network, device=device, rounds=2, scale="smoke", top_k_tasks=1
            ): (network, device)
            for network, device in specs
        }
        states = _drain(engine, workers=4)
        assert all(state == "done" for state in states.values())

        for job_id, (network, device) in ids.items():
            job = engine.queue.get(job_id)
            reference = api.tune_network(
                network,
                device=device,
                rounds=2,
                scale="smoke",
                top_k_tasks=1,
                seed=job.seed,
            )
            assert engine.result(job_id)["best"] == {
                key: wire_float(value) for key, value in reference.best.items()
            }


class TestServiceFacade:
    def test_status_result_and_best_schedule(self, tmp_path):
        engine = JobEngine(tmp_path)
        job_id = engine.submit("bert_tiny", **SMOKE)
        assert engine.status(job_id)["state"] == "pending"
        with pytest.raises(ServeError, match="pending"):
            engine.result(job_id)
        _drain(engine, workers=2)
        assert engine.status(job_id)["state"] == "done"
        assert engine.status() == {
            "pending": 0,
            "running": 0,
            "done": 1,
            "failed": 0,
            "cancelled": 0,
        }

        summary = engine.best_schedule("bert_tiny", top_k_tasks=1)
        assert summary["complete"]
        assert len(summary["tasks"]) == 1
        assert math.isfinite(summary["tuned_latency"])
        # not-yet-tuned workload: incomplete, inf
        missing = engine.best_schedule("bert_tiny", device="t4", top_k_tasks=1)
        assert not missing["complete"]
        assert math.isinf(missing["tuned_latency"])

        rows = engine.export()
        assert rows and all(row["store"]["method"] == "pruner" for row in rows)

    def test_cancel_pending_job_never_runs(self, tmp_path):
        engine = JobEngine(tmp_path)
        job_id = engine.submit("bert_tiny", **SMOKE)
        assert engine.cancel(job_id) is JobState.CANCELLED
        states = _drain(engine)  # drains nothing: the job is cancelled
        assert states[job_id] == "cancelled"
        with pytest.raises(ServeError, match="cancelled"):
            engine.result(job_id)
        with pytest.raises(ServeError, match="unknown job id"):
            engine.cancel("job-0000-nope")

    def test_drain_leaves_pending_in_ledger(self, tmp_path):
        engine = JobEngine(tmp_path)
        job_id = engine.submit("bert_tiny", rounds=1, scale="smoke", top_k_tasks=1)
        engine.queue.close()  # what the first SIGINT/SIGTERM does
        states = _drain(engine)  # leases nothing
        assert states[job_id] == "pending"
        (entry,) = JobQueue.load_ledger(engine.store.root / LEDGER_NAME)
        assert entry.state is JobState.PENDING
        # ...so the next run over the same cache dir picks it up
        resumed = JobEngine(tmp_path)
        assert _drain(resumed) == {job_id: "done"}

    def test_first_signal_drains_second_cancels(self, tmp_path):
        engine = JobEngine(tmp_path)
        in_flight = engine.submit("bert_tiny", **SMOKE)
        queued = engine.submit("gpt2", **SMOKE)
        assert engine.lease("r1")["job"]["job_id"] == in_flight
        before = signal.getsignal(signal.SIGTERM)
        out = io.StringIO()
        with _graceful_drain(engine, out):
            signal.raise_signal(signal.SIGTERM)
            assert "draining" in out.getvalue()
            assert engine.lease("r2") is None  # no new job starts
            assert not engine.queue.cancel_requested(in_flight)
            signal.raise_signal(signal.SIGINT)
            assert engine.queue.cancel_requested(in_flight)
        assert signal.getsignal(signal.SIGTERM) is before
        # the queued job is still requeueable, in memory and in the ledger
        assert engine.status(queued)["state"] == "pending"
        states = {
            job.job_id: job.state
            for job in JobQueue.load_ledger(engine.store.root / LEDGER_NAME)
        }
        assert states == {in_flight: JobState.RUNNING, queued: JobState.PENDING}

    def test_submit_rejects_unknown_scale(self, tmp_path):
        engine = JobEngine(tmp_path)
        with pytest.raises(SearchError):
            engine.submit("bert_tiny", scale="bogus")

    def test_unknown_network_rejected_at_submit(self, tmp_path):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError, match="no_such_network"):
            JobEngine(tmp_path).submit("no_such_network")

    def test_failed_job_reported(self, tmp_path, monkeypatch):
        engine = JobEngine(tmp_path)
        job_id = engine.submit("bert_tiny", rounds=1, max_retries=0)

        def explode(self, job, *args, **kwargs):
            raise RuntimeError("device on fire")

        monkeypatch.setattr(TuningRunner, "_tune", explode)
        states = _drain(engine)
        assert states[job_id] == "failed"
        assert "device on fire" in engine.status(job_id)["error"]
        with pytest.raises(ServeError, match="failed"):
            engine.result(job_id)


class TestCli:
    def test_tune_status_export(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        out = io.StringIO()
        code = cli_main(
            [
                "tune",
                "--network",
                "bert_tiny",
                "--rounds",
                "2",
                "--top-k-tasks",
                "1",
                "--cache-dir",
                cache,
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "best schedules:" in text
        assert "fresh" in text
        # start-up says whether the one-thread BLAS cap applies on this numpy
        banner = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("blas: ")]
        assert len(banner) == 1 and ("capped to 1 thread" in banner[0] or "inactive" in banner[0])

        out = io.StringIO()
        assert cli_main(["status", "--cache-dir", cache], out=out) == 0
        assert "jobs recorded: 1" in out.getvalue()

        out = io.StringIO()
        export_path = tmp_path / "dump.json"
        code = cli_main(
            ["export", "--cache-dir", cache, "--output", str(export_path)], out=out
        )
        assert code == 0
        rows = json.loads(export_path.read_text())
        assert rows and all("config_key" in row for row in rows)

    def test_status_and_export_leave_no_directory(self, tmp_path):
        """Read-only commands over a mistyped --cache-dir must not mkdir."""
        missing = tmp_path / "typo"
        for command in ("status", "export"):
            assert cli_main([command, "--cache-dir", str(missing)], out=io.StringIO()) == 0
        assert not missing.exists()


class TestStoreKey:
    def test_fingerprint_order_independent(self, a100):
        subs = [
            SubgraphTask(ops.matmul(128, 128, 128), 2),
            SubgraphTask(ops.matmul(256, 256, 256), 1),
        ]
        tasks = make_tasks(subs, a100)
        forward = store_key_for_tasks(tasks, "pruner")
        reverse = store_key_for_tasks(list(reversed(tasks)), "pruner")
        assert forward == reverse

    def test_tensorcore_space_gets_its_own_key(self, a100):
        """Records from a CUDA-core run must not warm-start a TensorCore
        run of the same workload (configs lower to different programs)."""
        subs = [SubgraphTask(ops.matmul(128, 768, 768, dtype="float16"), 1)]
        plain = make_tasks(subs, a100)
        tc = make_tasks(subs, a100, tensorcore=True)
        assert store_key_for_tasks(plain, "pruner") != store_key_for_tasks(
            tc, "pruner"
        )

    def test_filename_safe_and_distinct(self):
        weird = StoreKey("mat/mul weird:key", "a100", "pruner")
        other = StoreKey("mat mul/weird:key", "a100", "pruner")
        assert "/" not in weird.filename and " " not in weird.filename
        assert weird.filename != other.filename
