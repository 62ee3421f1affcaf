"""JobEngine behind its three entrances: direct calls, HTTP, ``tune``.

* Submit validation is one table, checked through all three.
* Transport equivalence: the same three jobs (cold pruner, cold ansor,
  then a warm pruner over the first one's rows and checkpoint) drained
  in process with 1 and 4 workers and by a runner over a socket give
  equal result summaries and byte-equal record-store and ``models/``
  files.  The expectation is ``fixtures/transport_golden.json``,
  captured AT THE PARENT COMMIT (1778dc7) by draining the same jobs
  through its ``TuningService`` (workers=1 and 4) and through its
  ``ServeApp`` + ``TuningRunner`` — three runs that agreed byte for
  byte there, so any drift here is this change's doing.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import threading
from pathlib import Path

import pytest
from test_serve import Stack, drain_with_threads

from repro.serve.cli import main as cli_main
from repro.serve.engine import LEDGER_NAME, RESULTS_NAME, JobEngine
from repro.serve.protocol import ServeError
from repro.serve.runner import TuningRunner, drain
from repro.service.jobs import JobQueue, JobState

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
