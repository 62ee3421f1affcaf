"""End-to-end tests for repro.serve: HTTP front end + runner protocol.

Everything here runs over real sockets (ephemeral ports); the
acceptance test at the bottom runs the server and a runner as separate
OS processes through the ``python -m repro.serve`` CLI.
"""

from __future__ import annotations

import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.serve.app import ServeApp
from repro.serve.client import ServeClient, ServeError
from repro.serve.engine import JobEngine
from repro.serve.http import make_server
from repro.serve.protocol import LeaseTable
from repro.serve.runner import TuningRunner, default_runner_id
from repro.service.jobs import JobState

SPEC = dict(rounds=2, scale="smoke", top_k_tasks=1)


class FakeClock:
    """Injectable monotonic clock: lease expiry without sleeping."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class Stack:
    """A JobEngine behind a ServeApp on a real ephemeral-port server.

    Keyword arguments go to whichever of the two declares them.
    """

    APP_KWARGS = ("verbose", "auth_token", "rate_limit", "rate_burst")

    def __init__(self, cache_dir, **kwargs) -> None:
        app_kwargs = {k: kwargs.pop(k) for k in self.APP_KWARGS if k in kwargs}
        self.engine = JobEngine(cache_dir, **kwargs)
        self.app = ServeApp(self.engine, **app_kwargs)
        self.server = make_server(self.app, "127.0.0.1", 0)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.client = ServeClient(
            self.url, timeout=10.0, auth_token=app_kwargs.get("auth_token")
        )
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def close(self, shutdown_app: bool = True) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        if shutdown_app:
            self.engine.shutdown()


@pytest.fixture
def stack(tmp_path):
    s = Stack(tmp_path / "cache")
    yield s
    s.close()


def drain_with_threads(engine: JobEngine, workers: int) -> int:
    """Drain ``engine`` with ``workers`` in-process runner threads.

    What ``repro.serve.runner.drain(engine, workers)`` did before it
    became one runner: the engine must stay safe under concurrent
    runners (HTTP handler threads are), so the tests still race them.
    Returns jobs completed; a runner loop that raised surfaces here.
    """
    runners = [
        TuningRunner(client=engine, runner_id=f"{default_runner_id()}-w{i}")
        for i in range(workers)
    ]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(r.run_forever, idle_exit=True) for r in runners]
        return sum(future.result() for future in futures)


def run_runner_thread(url: str, max_jobs: int = 1, **kwargs) -> threading.Thread:
    """A TuningRunner draining ``max_jobs`` jobs on a daemon thread."""
    runner = TuningRunner(url, poll=0.02, log=io.StringIO(), **kwargs)
    thread = threading.Thread(
        target=runner.run_forever, kwargs={"max_jobs": max_jobs}, daemon=True
    )
    thread.runner = runner  # so tests can stop() it on failure paths
    thread.start()
    return thread


class TestHttpLayer:
    def test_healthz(self, stack):
        health = stack.client.healthz()
        assert health["ok"] is True
        assert health["jobs"]["pending"] == 0
        assert health["active_leases"] == 0

    def test_unknown_route_404(self, stack):
        with pytest.raises(ServeError) as excinfo:
            stack.client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_non_json_body_400(self, stack):
        request = urllib.request.Request(
            stack.url + "/jobs", data=b"definitely not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_submit_validation(self, stack):
        client = stack.client
        for bad in (
            {},  # no network
            {"network": "bert_tiny", "flavor": "spicy"},  # unknown field
            {"network": "no_such_network"},
            {"network": "bert_tiny", "method": "bogus"},
            {"network": "bert_tiny", "rounds": "many"},
            {"network": "bert_tiny", "method": "tlp"},  # needs pretrained
        ):
            with pytest.raises(ServeError) as excinfo:
                client._request("POST", "/jobs", body=bad)
            assert excinfo.value.status == 400

    def test_bad_lease_ttl_does_not_strand_job(self, stack):
        client = stack.client
        job_id = client.submit("bert_tiny", **SPEC)
        for bad_ttl in (-5, 0, "soon"):
            with pytest.raises(ServeError) as excinfo:
                client.lease("r1", ttl=bad_ttl)
            assert excinfo.value.status == 400
        # the job was never claimed (or was released): still claimable
        assert client.status(job_id).state is JobState.PENDING

    def test_result_before_done_409_and_unknown_404(self, stack):
        job_id = stack.client.submit("bert_tiny", **SPEC)
        with pytest.raises(ServeError) as excinfo:
            stack.client.result(job_id)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["state"] == "pending"
        with pytest.raises(ServeError) as excinfo:
            stack.client.status("job-9999-nope")
        assert excinfo.value.status == 404


class TestEndToEnd:
    def test_submit_run_result_best_and_warm_start(self, stack):
        """Acceptance core: SDK submit -> remote runner -> result/best,
        then a second identical job warm-starts from wire seed rows."""
        client = stack.client
        first_id = client.submit("bert_tiny", **SPEC)
        thread = run_runner_thread(stack.url)
        status = client.wait(first_id, timeout=120, poll=0.05)
        thread.join(timeout=10)
        assert status.state is JobState.DONE
        assert status.progress is not None
        assert status.progress["round"] == SPEC["rounds"]

        first = client.result(first_id)
        assert first["fresh_trials"] > 0
        assert first["seeded_trials"] == 0
        assert first["warm_model"] is False  # cold store: nothing to restore
        assert first["rounds_completed"] == SPEC["rounds"]
        assert first["best"]

        best = client.best("bert_tiny", top_k_tasks=1)
        assert best["complete"]
        assert float(best["tuned_latency"]) == pytest.approx(
            float(first["final_latency"])
        )

        # round 2: the store's rows — and the trained cost-model
        # checkpoint — ride the lease to the next runner
        second_id = client.submit("bert_tiny", **SPEC)
        thread = run_runner_thread(stack.url)
        client.wait(second_id, timeout=120, poll=0.05)
        thread.join(timeout=10)
        second = client.result(second_id)
        assert second["seeded_trials"] > 0
        assert second["warm_model"] is True  # restored from the shipped checkpoint
        assert second["fresh_trials"] < first["fresh_trials"]
        assert float(second["final_latency"]) <= float(first["final_latency"])

    def test_progress_and_cancel_over_protocol(self, stack):
        """Deterministic wire walk: progress shows while running, DELETE
        flips the heartbeat's cancel flag, completion lands cancelled."""
        client = stack.client
        job_id = client.submit("bert_tiny", rounds=5, scale="smoke", top_k_tasks=1)
        leased = client.lease("fake-runner")
        assert leased is not None and leased["job"]["job_id"] == job_id
        assert leased["seed_rows"] == []

        beat = client.heartbeat(
            leased["lease_id"],
            "fake-runner",
            progress={"round": 1, "rounds": 5, "trials": 10},
        )
        assert beat["cancel"] is False
        status = client.status(job_id)
        assert status.state is JobState.RUNNING  # progress visible mid-run
        assert status.runner == "fake-runner"
        assert status.progress == {"round": 1, "rounds": 5, "trials": 10}

        assert client.cancel(job_id) is JobState.RUNNING  # cooperative
        assert client.status(job_id).cancel_requested
        beat = client.heartbeat(leased["lease_id"], "fake-runner")
        assert beat["cancel"] is True  # the runner learns on its next beat

        done = client.complete(
            leased["lease_id"],
            "fake-runner",
            job_id,
            result={"final_latency": 1.0, "rounds_completed": 1},
            records=[],
        )
        assert done["state"] == "cancelled"
        result = client.result(job_id)  # partial results are served
        assert result["rounds_completed"] == 1

    def test_cancel_real_runner_mid_round(self, stack):
        """Acceptance: DELETE cancels a running job within one round."""
        client = stack.client
        # enough rounds that the job cannot finish before the cancel
        job_id = client.submit("bert_tiny", rounds=200, scale="smoke", top_k_tasks=1)
        thread = run_runner_thread(stack.url)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = client.status(job_id)
            if status.progress is not None:  # at least one round done
                break
            time.sleep(0.01)
        else:
            pytest.fail("runner never reported progress")
        client.cancel(job_id)
        status = client.wait(job_id, timeout=60, poll=0.05)
        thread.join(timeout=10)
        assert status.state is JobState.CANCELLED
        result = client.result(job_id)
        assert 0 < result["rounds_completed"] < 200
        assert result["stopped_early"]

    def test_wrong_runner_heartbeat_409(self, stack):
        client = stack.client
        client.submit("bert_tiny", **SPEC)
        leased = client.lease("runner-a")
        with pytest.raises(ServeError) as excinfo:
            client.heartbeat(leased["lease_id"], "runner-b")
        assert excinfo.value.status == 409

    def test_checkpoint_round_trips_over_the_lease_wire(self, stack):
        """A completed job's checkpoint envelope is stored server-side
        and rides the next lease for the same spec — get_params is
        bit-identical after the full wire round trip."""
        import numpy as np

        from repro.costmodel import PaCM
        from repro.serve.protocol import checkpoint_from_wire, checkpoint_to_wire

        client = stack.client
        job_id = client.submit("bert_tiny", **SPEC)
        leased = client.lease("runner-a")
        assert leased["checkpoint"] is None  # cold store
        trained = PaCM(seed=5)  # stands in for a model trained on-device
        rows = [  # the trials it was "trained on" (rank is capped by rows)
            {"task_key": "t", "config_key": f"c{i}", "latency": 1e-3}
            for i in range(12)
        ]
        done = client.complete(
            leased["lease_id"],
            "runner-a",
            job_id,
            result={"final_latency": 1.0},
            records=rows,
            checkpoint=checkpoint_to_wire(trained.save_state(), trained_trials=12),
        )
        assert done["checkpoint_stored"] is True
        assert done["records_ingested"] == 12

        second_id = client.submit("bert_tiny", **SPEC)
        leased = client.lease("runner-b")
        assert leased["job"]["job_id"] == second_id
        state = checkpoint_from_wire(leased["checkpoint"])
        assert state is not None
        restored = PaCM(seed=0)
        restored.load_state(state)
        expected = trained.get_params()
        params = restored.get_params()
        assert set(params) == set(expected)
        for name in params:
            assert np.array_equal(params[name], expected[name])

        # staleness arbitration: a less-trained checkpoint is dropped
        done = client.complete(
            leased["lease_id"],
            "runner-b",
            second_id,
            result={"final_latency": 1.0},
            records=[],
            checkpoint=checkpoint_to_wire(PaCM(seed=9).save_state(), trained_trials=3),
        )
        assert done["checkpoint_stored"] is False

    def test_complete_cannot_redirect_upload_to_another_job(self, stack):
        """The lease's job binding is authoritative: a completion body
        naming a different job must not plant records or a checkpoint
        under that job's store key."""
        from repro.costmodel import PaCM
        from repro.serve.protocol import checkpoint_to_wire

        client = stack.client
        mine = client.submit("bert_tiny", **SPEC)
        other = client.submit("gpt2", **SPEC)
        leased = client.lease("runner-a")
        assert leased["job"]["job_id"] == mine
        done = client.complete(
            leased["lease_id"],
            "runner-a",
            other,  # forged: a job this runner never held
            result={"final_latency": 1.0},
            records=[],
            checkpoint=checkpoint_to_wire(PaCM().save_state(), trained_trials=10**6),
        )
        assert done["job_id"] == mine  # the lease won
        engine = stack.engine
        other_key = engine._store_key_for(engine.queue.get(other))
        mine_key = engine._store_key_for(engine.queue.get(mine))
        assert engine.models.load_wire(other_key, "pacm") is None
        assert engine.models.load_wire(mine_key, "pacm") is not None
        # the forged trial count was clamped to the evidence on file
        # (no rows shipped), so it cannot freeze the arbitration slot
        assert engine.models.trained_trials(mine_key, "pacm") == 0

    def test_no_checkpoints_server_advertises_it(self, tmp_path):
        """--no-checkpoints: the lease carries neither a checkpoint nor
        the willingness to accept one, so runners skip the upload."""
        stack = Stack(tmp_path / "cache", checkpoints=False)
        try:
            client = stack.client
            client.submit("bert_tiny", **SPEC)
            leased = client.lease("r1")
            assert leased["accepts_checkpoints"] is False
            assert leased["checkpoint"] is None
        finally:
            stack.close()

    def test_expired_lease_upload_still_lands_on_the_right_job(self, tmp_path):
        """A complete landing after the lease was reaped is still
        attributed through the retired binding; a lease the table never
        issued falls back to the claimed job for rows (inert if wrong —
        they would not re-lower) but never for the checkpoint."""
        from repro.costmodel import PaCM
        from repro.serve.protocol import checkpoint_to_wire

        clock = FakeClock()
        stack = Stack(tmp_path / "cache", lease_ttl=30.0, clock=clock)
        try:
            client = stack.client
            job_id = client.submit("bert_tiny", **SPEC)
            leased = client.lease("slow-runner")
            clock.advance(31.0)
            client.healthz()  # reaper pops the lease, requeues the job
            rows = [{"task_key": "t", "config_key": "c0", "latency": 1e-3}]
            with pytest.raises(ServeError) as excinfo:
                client.complete(
                    leased["lease_id"],
                    "slow-runner",
                    "job-9999-forged",  # body lies; the binding wins
                    result={"final_latency": 1.0},
                    records=rows,
                )
            assert excinfo.value.status == 410  # lease is gone...
            engine = stack.engine
            key = engine._store_key_for(engine.queue.get(job_id))
            assert engine.store.count(key) == 1  # ...rows still landed
            with pytest.raises(ServeError):
                client.complete(
                    "lease-that-never-existed",  # e.g. issued pre-restart
                    "slow-runner",
                    job_id,
                    result={},
                    records=[{"task_key": "t", "config_key": "c1", "latency": 1e-3}],
                    checkpoint=checkpoint_to_wire(
                        PaCM().save_state(), trained_trials=5
                    ),
                )
            assert engine.store.count(key) == 2  # rows survive restarts
            # ...but an unattributable checkpoint never lands anywhere
            assert engine.models.load_wire(key, "pacm") is None
        finally:
            stack.close()


class TestServeBugfixRegressions:
    """Regressions for the serve-layer fixes: status reads reap, lease
    TTLs are capped, and runner-protocol calls validate runner_id."""

    def test_pure_status_poll_sees_expired_lease(self, tmp_path):
        """GET /jobs/{id} alone (no probe traffic) must notice a dead
        runner — previously the job showed `running` forever until
        something happened to hit /healthz or /lease."""
        clock = FakeClock()
        stack = Stack(tmp_path / "cache", lease_ttl=30.0, clock=clock)
        try:
            client = stack.client
            job_id = client.submit("bert_tiny", **SPEC)
            client.lease("doomed-runner")
            assert client.status(job_id).state is JobState.RUNNING
            clock.advance(31.0)  # runner dies; nothing touches the probes
            assert client.status(job_id).state is JobState.PENDING
        finally:
            stack.close()

    def test_pure_jobs_list_sees_expired_lease(self, tmp_path):
        clock = FakeClock()
        stack = Stack(tmp_path / "cache", lease_ttl=30.0, clock=clock)
        try:
            client = stack.client
            client.submit("bert_tiny", **SPEC)
            client.lease("doomed-runner")
            clock.advance(31.0)
            (job,) = client.jobs()
            assert job.state is JobState.PENDING
        finally:
            stack.close()

    def test_oversized_ttl_rejected_at_default_cap(self, stack):
        """ttl=1e12 must not strand a claimed job un-reapable: 400, and
        the job was never claimed."""
        client = stack.client
        job_id = client.submit("bert_tiny", **SPEC)
        with pytest.raises(ServeError) as excinfo:
            client.lease("greedy-runner", ttl=1e12)
        assert excinfo.value.status == 400
        assert client.status(job_id).state is JobState.PENDING
        # the default cap is 10x the server's lease TTL (30 -> 300)
        with pytest.raises(ServeError) as excinfo:
            client.lease("greedy-runner", ttl=300.5)
        assert excinfo.value.status == 400
        leased = client.lease("greedy-runner", ttl=300.0)
        assert leased is not None and leased["ttl"] == 300.0

    def test_custom_max_lease_ttl(self, tmp_path):
        stack = Stack(tmp_path / "cache", lease_ttl=30.0, max_lease_ttl=60.0)
        try:
            client = stack.client
            client.submit("bert_tiny", **SPEC)
            with pytest.raises(ServeError) as excinfo:
                client.lease("r1", ttl=61.0)
            assert excinfo.value.status == 400
            leased = client.lease("r1", ttl=60.0)
            assert leased is not None and leased["ttl"] == 60.0
        finally:
            stack.close()

    def test_missing_runner_id_is_400_not_409(self, stack):
        """A body without a runner_id (or with a junk one) used to flow
        as "" into the ownership check and surface as a misleading 409
        conflict; it must be a 400 validation error on every
        runner-protocol endpoint — and must not disturb the lease."""
        client = stack.client
        client.submit("bert_tiny", **SPEC)
        leased = client.lease("real-runner")
        lease_id = leased["lease_id"]
        for suffix in ("heartbeat", "complete", "fail"):
            for body in ({}, {"runner_id": ""}, {"runner_id": 7}):
                with pytest.raises(ServeError) as excinfo:
                    client._request(
                        "POST", f"/lease/{lease_id}/{suffix}", body=body
                    )
                assert excinfo.value.status == 400, (suffix, body)
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/lease", body={})
        assert excinfo.value.status == 400
        # the rejected calls neither dropped nor stole the lease
        beat = client.heartbeat(lease_id, "real-runner")
        assert beat["job_id"] == leased["job"]["job_id"]


class TestLeaseExpiry:
    def test_dead_runner_requeues_and_another_finishes(self, tmp_path):
        """Acceptance: killing a runner mid-lease requeues the job and a
        second runner completes it (clock-driven, no sleeping)."""
        clock = FakeClock()
        stack = Stack(tmp_path / "cache", lease_ttl=30.0, clock=clock)
        try:
            client = stack.client
            job_id = client.submit("bert_tiny", **SPEC)
            leased = client.lease("doomed-runner")
            assert leased["job"]["job_id"] == job_id
            assert client.status(job_id).state is JobState.RUNNING
            assert client.status(job_id).attempts == 1

            clock.advance(31.0)  # the runner dies: no more heartbeats
            health = client.healthz()  # any reaping request notices
            assert health["active_leases"] == 0
            status = client.status(job_id)
            assert status.state is JobState.PENDING  # requeued
            assert status.attempts == 0  # expiry refunds the attempt

            with pytest.raises(ServeError) as excinfo:
                client.heartbeat(leased["lease_id"], "doomed-runner")
            assert excinfo.value.status == 410  # late beat: lease is gone

            thread = run_runner_thread(stack.url)
            final = client.wait(job_id, timeout=120, poll=0.05)
            thread.join(timeout=10)
            assert final.state is JobState.DONE
            assert final.attempts == 1
            assert client.result(job_id)["fresh_trials"] > 0
        finally:
            stack.close()


class TestRestartSurvival:
    def test_ledger_and_results_survive_restart(self, tmp_path):
        cache = tmp_path / "cache"
        stack = Stack(cache)
        done_id = stack.client.submit("bert_tiny", **SPEC)
        thread = run_runner_thread(stack.url)
        stack.client.wait(done_id, timeout=120, poll=0.05)
        thread.join(timeout=10)
        stale_id = stack.client.submit("gpt2", **SPEC)
        stack.client.lease("about-to-die")  # claimed, never finished
        assert stack.client.status(stale_id).state is JobState.RUNNING
        stack.close(shutdown_app=False)  # crash: no graceful shutdown

        reborn = Stack(cache)
        try:
            client = reborn.client
            # finished work is still served, straight from disk
            assert client.status(done_id).state is JobState.DONE
            assert client.result(done_id)["fresh_trials"] > 0
            # the orphaned running job came back as claimable work
            assert client.status(stale_id).state is JobState.PENDING
            thread = run_runner_thread(reborn.url)
            final = client.wait(stale_id, timeout=120, poll=0.05)
            thread.join(timeout=10)
            assert final.state is JobState.DONE
        finally:
            reborn.close()


class TestLeaseTable:
    def test_grant_heartbeat_expire(self):
        clock = FakeClock()
        table = LeaseTable(ttl=10.0, clock=clock)
        lease = table.grant("job-1", "runner-1")
        clock.advance(8.0)
        table.heartbeat(lease.lease_id, "runner-1")  # extends to t=18
        clock.advance(8.0)
        assert table.expired() == []  # t=16 < 18: still alive
        clock.advance(3.0)
        assert [dead.job_id for dead in table.expired()] == ["job-1"]
        with pytest.raises(KeyError):
            table.heartbeat(lease.lease_id, "runner-1")

    def test_heartbeat_after_expiry_cannot_resurrect(self):
        """Regression: a runner stalling past its TTL must not revive a
        lease the server is about to requeue — even when its beat lands
        before the reaper runs.  The lease stays reapable."""
        clock = FakeClock()
        table = LeaseTable(ttl=10.0, clock=clock)
        lease = table.grant("job-1", "runner-1")
        clock.advance(11.0)  # past the deadline, reaper has NOT run yet
        with pytest.raises(KeyError):
            table.heartbeat(lease.lease_id, "runner-1")
        # the rejected beat did not extend the deadline or pop the lease:
        # the reaper still hands the job to the requeue path exactly once
        assert [dead.job_id for dead in table.expired()] == ["job-1"]

    def test_release_after_expiry_rejected(self):
        """A complete/fail landing after expiry is equally dead: the job
        may already be running elsewhere."""
        clock = FakeClock()
        table = LeaseTable(ttl=10.0, clock=clock)
        lease = table.grant("job-1", "runner-1")
        clock.advance(11.0)
        with pytest.raises(KeyError):
            table.release(lease.lease_id, "runner-1")
        assert table.active() == 1  # still there for the reaper
        assert [dead.job_id for dead in table.expired()] == ["job-1"]

    def test_release_within_ttl_still_works(self):
        clock = FakeClock()
        table = LeaseTable(ttl=10.0, clock=clock)
        lease = table.grant("job-1", "runner-1")
        clock.advance(9.0)
        assert table.release(lease.lease_id, "runner-1").job_id == "job-1"
        assert table.active() == 0

    def test_drain_pops_everything(self):
        table = LeaseTable(ttl=10.0, clock=FakeClock())
        table.grant("job-1", "r1")
        table.grant("job-2", "r2")
        assert {lease.job_id for lease in table.drain()} == {"job-1", "job-2"}
        assert table.active() == 0

    def test_rejects_bad_ttl(self):
        with pytest.raises(ValueError):
            LeaseTable(ttl=0)

    def test_grant_clamps_requested_ttl_to_max(self):
        """Second line of defense below the 400: direct grants clamp."""
        table = LeaseTable(ttl=10.0, clock=FakeClock())
        assert table.max_ttl == 100.0  # default cap: 10x the base TTL
        assert table.grant("job-1", "r1", ttl=1e12).ttl == 100.0
        custom = LeaseTable(ttl=10.0, clock=FakeClock(), max_ttl=20.0)
        assert custom.grant("job-2", "r1", ttl=50.0).ttl == 20.0
        assert custom.grant("job-3", "r1", ttl=15.0).ttl == 15.0

    def test_rejects_max_ttl_below_ttl(self):
        with pytest.raises(ValueError):
            LeaseTable(ttl=10.0, max_ttl=5.0)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestCliProcesses:
    def test_server_and_runner_as_separate_processes(self, tmp_path):
        """Acceptance: real ``python -m repro.serve server`` + a separate
        runner process complete a job; SIGTERM shuts the server down
        gracefully (ledger flushed)."""
        port = _free_port()
        cache = tmp_path / "cache"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "server",
                "--port",
                str(port),
                "--cache-dir",
                str(cache),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        runner = None
        try:
            client = ServeClient(f"http://127.0.0.1:{port}", timeout=10.0)
            for _ in range(100):  # wait for the socket to come up
                try:
                    assert client.healthz()["ok"]
                    break
                except OSError:
                    time.sleep(0.1)
            else:
                pytest.fail("server process never became healthy")

            job_id = client.submit("bert_tiny", **SPEC)
            runner = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.serve",
                    "runner",
                    "--server",
                    f"http://127.0.0.1:{port}",
                    "--max-jobs",
                    "1",
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
            )
            status = client.wait(job_id, timeout=180, poll=0.1)
            assert status.state is JobState.DONE
            assert client.result(job_id)["fresh_trials"] > 0
            assert runner.wait(timeout=30) == 0  # exits after --max-jobs

            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=15) == 0
            ledger = (cache / "jobs.jsonl").read_text()
            rows = [json.loads(line) for line in ledger.splitlines()]
            assert {row["job_id"] for row in rows} == {job_id}
            assert rows[-1]["state"] == "done"  # the job's last row
        finally:
            for proc in (runner, server):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
