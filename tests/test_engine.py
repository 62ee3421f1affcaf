"""JobEngine behind its three entrances: direct calls, HTTP, ``tune``.

* Submit validation is one table, checked through all three.
* A lease is a long poll: ``lease(wait=)`` takes a job submitted or
  requeued during the wait, wakes on shutdown, does not spin when
  another runner took the job that woke it, and the runner never polls
  faster than ``poll``.
* Transport equivalence: the same three jobs (cold pruner, cold ansor,
  then a warm pruner over the first one's rows and checkpoint) drained
  in process with 1 and 4 workers and by a runner over a socket give
  equal result summaries and byte-equal record-store and ``models/``
  files.  The expectation is ``fixtures/transport_golden.json``,
  captured AT THE PARENT COMMIT (1778dc7) by draining the same jobs
  through its ``TuningService`` (workers=1 and 4) and through its
  ``ServeApp`` + ``TuningRunner`` — three runs that agreed byte for
  byte there, so any drift here is this change's doing.  Its
  ``checkpoint_content`` pins what each stored checkpoint holds whatever
  its file format (see :func:`_content`), captured at 111c4b7 from the
  v1 JSON envelopes; the ``models/`` file digests pin the bytes, and
  were re-frozen when the files became v2 checkpoint blobs.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from test_serve import FakeClock, Stack, drain_with_threads

from repro.serve.cli import main as cli_main
from repro.serve.engine import LEDGER_NAME, RESULTS_NAME, JobEngine
from repro.serve.protocol import ServeError
from repro.serve.runner import TuningRunner, drain
from repro.service.jobs import JobQueue, JobState
from repro.service.models import state_from_wire

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "transport_golden.json").read_text()
)

#: (bad field values, fragment of the refusal) — each on top of a valid spec
BAD_SPECS = [
    ({"rounds": 0}, "'rounds' must be >= 1"),
    ({"rounds": -3}, "'rounds' must be >= 1"),
    ({"rounds": 2.9}, "'rounds' must be an integer"),
    ({"rounds": True}, "'rounds' must be an integer"),
    ({"rounds": "8"}, "'rounds' must be an integer"),
    ({"rounds": None}, "'rounds' must be an integer"),
    ({"batch": 0}, "'batch' must be >= 1"),
    ({"top_k_tasks": 0}, "'top_k_tasks' must be >= 1"),
    ({"max_retries": -5}, "'max_retries' must be >= 0"),
    ({"priority": 1.5}, "'priority' must be an integer"),
    ({"seed": "lucky"}, "'seed' must be an integer"),
    ({"device": None}, "'device' must be a non-empty string"),
    ({"device": 7}, "'device' must be a non-empty string"),
    ({"method": ["pruner"]}, "'method' must be a non-empty string"),
    ({"scale": ""}, "'scale' must be a non-empty string"),
    ({"network": 3}, "'network' must be a non-empty string"),
]
OK_SPECS = [
    {"rounds": 2.0},  # integral JSON number
    {"top_k_tasks": None, "seed": None},
    {"max_retries": 0, "priority": -1, "seed": 0},
]
VALID = {"network": "bert_tiny", "rounds": 2, "scale": "smoke", "top_k_tasks": 1}


class TestSubmitValidation:
    @pytest.mark.parametrize(("bad", "why"), BAD_SPECS)
    def test_engine_refuses(self, tmp_path, bad, why):
        engine = JobEngine(tmp_path / "cache")
        with pytest.raises(ServeError, match=why) as excinfo:
            engine.submit(**{**VALID, **bad})
        assert excinfo.value.status == 400
        assert engine.jobs() == []
        assert not (tmp_path / "cache").exists()  # nothing reached the ledger

    def test_engine_refuses_unknown_and_bookkeeping_fields(self, tmp_path):
        engine = JobEngine(tmp_path)
        for extra in ({"flavor": "spicy"}, {"job_id": "job-1"}, {"attempts": 3}):
            with pytest.raises(ServeError, match="unknown job field"):
                engine.submit(**VALID, **extra)

    def test_http_answers_400(self, tmp_path):
        stack = Stack(tmp_path / "cache")
        try:
            for bad, why in BAD_SPECS:
                with pytest.raises(ServeError, match=why) as excinfo:
                    stack.client._request("POST", "/jobs", body={**VALID, **bad})
                assert excinfo.value.status == 400, bad
            assert stack.client.jobs() == []
            for ok in OK_SPECS:
                job_id = stack.client.submit(**{**VALID, **ok})
                assert stack.engine.queue.get(job_id).rounds == 2
        finally:
            stack.close()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--rounds", "0"],
            ["--rounds", "-3"],
            ["--batch", "0"],
            ["--top-k-tasks", "0"],
        ],
    )
    def test_tune_exits_1(self, tmp_path, flags):
        out = io.StringIO()
        cache = tmp_path / "cache"
        argv = ["tune", "--network", "bert_tiny", "--cache-dir", str(cache), *flags]
        assert cli_main(argv, out=out) == 1
        assert "must be >=" in out.getvalue()
        assert not cache.exists()


def _digest(cache: Path) -> dict[str, str]:
    """sha256 of every record file and checkpoint (not the indexes,
    ledger or result summaries, which carry job ids and LRU stamps)."""
    skip = (LEDGER_NAME, RESULTS_NAME, "index.json")
    files = [*cache.glob("*.jsonl"), *(cache / "models").glob("*.json")]
    return {
        str(path.relative_to(cache)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(files)
        if path.name not in skip
    }


def _decoded(path: Path) -> tuple[dict, int]:
    """A stored checkpoint's model state and trial count."""
    state = state_from_wire(path.read_bytes())
    return state, state["trained_trials"]


def _content(cache: Path) -> dict[str, str]:
    """Per stored checkpoint, a SHA-256 over what it holds, not how it is
    encoded: the header fields but the format version, then each array's
    name, dtype, shape and raw bytes, in name order."""
    out = {}
    for path in sorted((cache / "models").glob("*.json")):
        if path.name == "index.json":
            continue
        state, trained = _decoded(path)
        fields = {k: state[k] for k in ("state_v", "kind", "feature_kind", "arch")}
        digest = hashlib.sha256(
            json.dumps({**fields, "trained_trials": trained}, sort_keys=True).encode()
        )
        for name in sorted(state["params"]):
            arr = np.ascontiguousarray(state["params"][name])
            digest.update(json.dumps([name, arr.dtype.str, list(arr.shape)]).encode())
            digest.update(arr.tobytes())
        out[str(path.relative_to(cache))] = digest.hexdigest()
    return out


def _in_process(cache: Path, workers: int) -> list[dict]:
    results = []
    for phase in GOLDEN["phases"]:
        engine = JobEngine(cache)  # a fresh process per phase, like `tune`
        ids = [
            engine.submit(method=method, rounds=rounds, **GOLDEN["spec"])
            for method, rounds in phase
        ]
        drain(engine) if workers == 1 else drain_with_threads(engine, workers)
        results += [engine.result(job_id) for job_id in ids]
    return results


def _over_socket(cache: Path) -> list[dict]:
    stack = Stack(cache)
    results = []
    try:
        for phase in GOLDEN["phases"]:
            ids = [
                stack.client.submit(method=method, rounds=rounds, **GOLDEN["spec"])
                for method, rounds in phase
            ]
            TuningRunner(stack.url, log=io.StringIO()).run_forever(idle_exit=True)
            results += [stack.client.result(job_id) for job_id in ids]
    finally:
        stack.close()
    return results


class TestTransportEquivalence:
    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda cache: _in_process(cache, 1), id="in-process-1-worker"),
            pytest.param(lambda cache: _in_process(cache, 4), id="in-process-4-workers"),
            pytest.param(_over_socket, id="socket-runner"),
        ],
    )
    def test_matches_parent_golden(self, tmp_path, run):
        cache = tmp_path / "cache"
        results = run(cache)
        # what a client reads back is what went through JSON on disk
        assert json.loads(json.dumps(results)) == results
        assert results == GOLDEN["results"]
        assert _digest(cache) == GOLDEN["files"]
        assert _content(cache) == GOLDEN["checkpoint_content"]
        # the warm job really was warm, or the golden pins nothing
        assert results[2]["warm_model"] and results[2]["seeded_trials"] == 30

    def test_in_process_result_survives_restart(self, tmp_path):
        engine = JobEngine(tmp_path)
        job_id = engine.submit(method="ansor", rounds=1, **GOLDEN["spec"])
        drain(engine)
        assert JobEngine(tmp_path).result(job_id) == engine.result(job_id)


class TestConcurrentRunners:
    def test_eight_runners_share_one_engine(self, tmp_path):
        """More runner threads than cores at a 10 us switch interval,
        protocol only (no tuning): every job is leased exactly once,
        finishes ``done`` with its own runner's result, and the ledger
        and result file on disk agree with memory."""
        engine = JobEngine(tmp_path)
        ids = [engine.submit(**VALID, seed=i) for i in range(24)]
        leased_ids: list[str] = []  # list.append is atomic

        def runner(name: str) -> None:
            while (leased := engine.lease(name)) is not None:
                job_id = leased["job"]["job_id"]
                leased_ids.append(job_id)
                assert not engine.heartbeat(leased["lease_id"], name, {"round": 1})["cancel"]
                engine.complete(leased["lease_id"], name, job_id, {"by": name}, [])

        threads = [
            threading.Thread(target=runner, args=(f"r{i}",), daemon=True)
            for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(leased_ids) == sorted(ids)  # nobody skipped, nobody doubled
        assert engine.status()["done"] == len(ids) and engine.leases.active() == 0
        restarted = JobEngine(tmp_path)  # what reached the disk
        for job in JobQueue.load_ledger(tmp_path / LEDGER_NAME):
            assert job.state is JobState.DONE and job.attempts == 1
            assert restarted.result(job.job_id) == {"by": job.runner_id}

    def test_eight_waiting_runners_take_jobs_as_they_are_submitted(self, tmp_path):
        """The same with long polls: eight runners wait in ``lease`` while
        jobs are submitted one by one, at a 10 us switch interval; every
        job is leased exactly once, and the runners leave once idle."""
        engine = JobEngine(tmp_path)
        leased_ids: list[str] = []

        def runner(name: str) -> None:
            while (leased := engine.lease(name, wait=0.5)) is not None:
                job_id = leased["job"]["job_id"]
                leased_ids.append(job_id)
                engine.complete(leased["lease_id"], name, job_id, {"by": name}, [])

        threads = [
            threading.Thread(target=runner, args=(f"r{i}",), daemon=True)
            for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            ids = [engine.submit(**VALID, seed=i) for i in range(24)]
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(leased_ids) == sorted(ids)
        assert engine.status()["done"] == len(ids) and engine.leases.active() == 0

    def test_cancel_racing_complete_leaves_the_last_row_true(self, tmp_path):
        """Every job gets a ``cancel`` and a ``complete`` from two of 48
        threads released together at a 10 us switch interval.  Either
        order is legal (done, or cancelled when the cancel won); what is
        not is a ledger whose last row for a job is the loser's stale
        view — rows are rendered after the journal lock is taken, so
        file order is transition order."""
        engine = JobEngine(tmp_path)
        ids = [engine.submit(**VALID, seed=i) for i in range(24)]
        leases = {}
        while (leased := engine.lease("r1")) is not None:
            leases[leased["job"]["job_id"]] = leased["lease_id"]
        assert sorted(leases) == sorted(ids)
        go = threading.Barrier(2 * len(ids))

        def race(job_id: str, cancel: bool) -> None:
            go.wait(timeout=30)
            if cancel:
                engine.cancel(job_id)
            else:
                engine.complete(leases[job_id], "r1", job_id, {"ok": 1}, [])

        threads = [
            threading.Thread(target=race, args=(job_id, cancel), daemon=True)
            for job_id in ids
            for cancel in (True, False)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        on_disk = {job.job_id: job for job in JobQueue.load_ledger(tmp_path / LEDGER_NAME)}
        states = set()
        for job_id in ids:
            assert on_disk[job_id].to_dict() == engine.queue.get(job_id).to_dict()
            states.add(on_disk[job_id].state)
        assert states <= {JobState.DONE, JobState.CANCELLED}


#: how long a test gives a lease thread to reach its wait
SETTLE = 0.2


def _lease_in_thread(engine: JobEngine, runner_id: str, **kwargs):
    """Run ``engine.lease`` on a thread; the returned dict gets the
    lease (``leased``) and the seconds the call took (``took``)."""
    outcome: dict = {}

    def run() -> None:
        start = time.monotonic()
        outcome["leased"] = engine.lease(runner_id, **kwargs)
        outcome["took"] = time.monotonic() - start

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


class TestLongPollLease:
    def test_a_job_submitted_mid_wait_is_taken_at_once(self, tmp_path):
        engine = JobEngine(tmp_path)
        thread, outcome = _lease_in_thread(engine, "r1", wait=30.0)
        time.sleep(SETTLE)
        job_id = engine.submit(**VALID)
        thread.join(timeout=10)
        assert outcome["leased"]["job"]["job_id"] == job_id
        assert outcome["took"] < 5.0  # the submit ended the wait, not the deadline

    def test_shutdown_wakes_a_waiting_lease(self, tmp_path):
        engine = JobEngine(tmp_path)
        thread, outcome = _lease_in_thread(engine, "r1", wait=30.0)
        time.sleep(SETTLE)
        engine.shutdown()
        thread.join(timeout=10)
        assert outcome["leased"] is None and outcome["took"] < 5.0

    def test_no_wait_on_an_empty_queue_answers_at_once(self, tmp_path):
        engine = JobEngine(tmp_path)
        start = time.monotonic()
        assert engine.lease("r1") is None
        assert engine.lease("r1", wait=0) is None
        assert drain(engine) == 0  # idle_exit asks without waiting
        assert time.monotonic() - start < 0.25

    def test_a_job_another_runner_took_does_not_make_a_waiter_spin(self, tmp_path):
        engine = JobEngine(tmp_path)
        claims = []
        claim = engine.queue.claim

        def counted(**kwargs):
            claims.append(kwargs["runner_id"])
            return claim(**kwargs)

        engine.queue.claim = counted
        waiters = {rid: _lease_in_thread(engine, rid, wait=1.0) for rid in ("r1", "r2")}
        time.sleep(SETTLE)
        job_id = engine.submit(**VALID)  # one job, two waiters: one misses
        for thread, _ in waiters.values():
            thread.join(timeout=10)
            assert not thread.is_alive()
        winner = engine.status(job_id)["runner"]
        (loser,) = set(waiters) - {winner}
        assert waiters[winner][1]["leased"]["job"]["job_id"] == job_id
        missed = waiters[loser][1]
        assert missed["leased"] is None and missed["took"] >= 0.9
        # the loser's first look, the one the submit woke, the one at
        # the deadline
        assert claims.count(loser) <= 4

    def test_a_lease_expiring_mid_wait_is_claimed_by_its_end(self, tmp_path):
        clock = FakeClock()
        engine = JobEngine(tmp_path, lease_ttl=30.0, clock=clock)
        job_id = engine.submit(**VALID)
        assert engine.lease("doomed")["job"]["job_id"] == job_id
        thread, outcome = _lease_in_thread(engine, "r2", wait=0.5)
        time.sleep(SETTLE)
        clock.advance(31.0)  # the lease lapses; nothing pushes the job back
        thread.join(timeout=10)
        assert outcome["leased"]["job"]["job_id"] == job_id
        assert engine.status(job_id)["runner"] == "r2"

    def test_a_submit_racing_the_claim_is_not_missed(self, tmp_path):
        """A job pushed after the empty claim, before the wait begins,
        still ends the wait: the push count was read before the claim."""
        engine = JobEngine(tmp_path)
        raced = []
        claim = engine.queue.claim

        def claim_then_submit(**kwargs):
            job = claim(**kwargs)
            if not raced:
                raced.append(engine.submit(**VALID))
            return job

        engine.queue.claim = claim_then_submit
        start = time.monotonic()
        assert engine.lease("r1", wait=30.0)["job"]["job_id"] == raced[0]
        assert time.monotonic() - start < 5.0


class EmptyLeases:
    """A client whose every lease comes back empty at once, as from a
    server that ignores ``wait``; records the ``wait`` of each ask."""

    def __init__(self) -> None:
        self.waits: list[float] = []

    def lease(self, runner_id, ttl=None, wait=0.0):
        self.waits.append(wait)
        return None


class TestRunnerLongPoll:
    def test_an_early_empty_answer_does_not_make_the_runner_spin(self):
        client = EmptyLeases()
        runner = TuningRunner(client=client, poll=0.05, log=io.StringIO())
        thread = threading.Thread(target=runner.run_forever, daemon=True)
        thread.start()
        time.sleep(0.5)
        runner.stop()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert set(client.waits) == {0.05}  # the server is asked to hold it
        assert 3 <= len(client.waits) <= 15  # about one ask per poll

    def test_idle_exit_asks_without_waiting(self):
        client = EmptyLeases()
        runner = TuningRunner(client=client, poll=30.0, log=io.StringIO())
        assert runner.run_forever(idle_exit=True) == 0
        assert client.waits == [0.0]
