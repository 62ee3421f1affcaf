"""What a runner keeps between jobs, and the order its reports arrive in.

Every test runs both ways a runner leases: over a socket (a
:class:`~repro.serve.client.ServeClient` against a real server) and
through ``drain`` (the :class:`~repro.serve.engine.JobEngine` itself as
the client).
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro import api
from repro.costmodel import PaCM
from repro.hardware.device import get_device
from repro.serve import runner as runner_module
from repro.serve.client import ServeError
from repro.serve.engine import JobEngine
from repro.serve.protocol import checkpoint_to_wire
from repro.serve.runner import TuningRunner
from repro.service.jobs import JobState
from repro.service.store import store_key_for_tasks
from repro.workloads import network_tasks

from test_serve import Stack

SMOKE = dict(scale="smoke", top_k_tasks=1)
TRANSPORTS = ("socket", "drain")


@contextmanager
def serving(tmp_path, transport: str):
    """(engine, the client a runner leases through) for one transport."""
    if transport == "drain":
        engine = JobEngine(tmp_path / "cache")
        try:
            yield engine, engine
        finally:
            engine.shutdown()
        return
    stack = Stack(tmp_path / "cache")
    try:
        yield stack.engine, stack.client
    finally:
        stack.close()


class Recording:
    """A runner's client, recorded: every lease payload it received.

    ``announce=False`` drops ``have`` from lease requests, as a runner
    that predates checkpoint references would; ``on_progress`` sees each
    round report before it is sent.  Every ``complete``'s blob and
    answer are recorded too.
    """

    def __init__(self, inner, announce: bool = True, on_progress=None) -> None:
        self.inner = inner
        self.announce = announce
        self.on_progress = on_progress
        self.leases: list[dict] = []
        #: (checkpoint blob, answer) of every ``complete``
        self.uploads: list[tuple[bytes | None, dict]] = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def lease(self, runner_id, **kwargs):
        if not self.announce:
            kwargs.pop("have", None)
        leased = self.inner.lease(runner_id, **kwargs)
        if leased is not None:
            self.leases.append(leased)
        return leased

    def complete(self, *args, **kwargs):
        response = self.inner.complete(*args, **kwargs)
        self.uploads.append((kwargs.get("blob"), response))
        return response

    def heartbeat(self, lease_id, runner_id, progress=None):
        if progress is not None and self.on_progress is not None:
            self.on_progress(progress)
        return self.inner.heartbeat(lease_id, runner_id, progress=progress)


def run_all(client) -> int:
    """Run every queued job on one runner; returns jobs completed."""
    return TuningRunner(client=client, log=io.StringIO(), poll=0.02).run_forever(
        idle_exit=True
    )


def job_events(engine: JobEngine, client, job_id: str) -> list[dict]:
    if client is engine:
        return engine.events(job_id)["events"]
    return list(client.events(job_id, poll_timeout=1.0))


def stored_rows(engine: JobEngine, network: str) -> int:
    tasks = api.tasks_for("pruner", network_tasks(network, top_k=1), get_device("a100"))
    return engine.store.count(store_key_for_tasks(tasks, "pruner"))


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestRoundReports:
    def test_round_events_arrive_in_order_and_before_done(self, tmp_path, transport):
        with serving(tmp_path, transport) as (engine, client):
            job_id = engine.submit("bert_tiny", rounds=4, **SMOKE)
            # slow beats: the last ones are still queued when tuning ends
            slow = Recording(client, on_progress=lambda progress: time.sleep(0.05))
            assert run_all(slow) == 1
            events = job_events(engine, client, job_id)
        types = [event["type"] for event in events]
        assert [event["round"] for event in events if event["type"] == "round"] == [
            1, 2, 3, 4,
        ]
        assert types[-1] == "done"
        assert types.count("done") == 1

    def test_a_cancel_stops_the_job_within_two_rounds(self, tmp_path, transport):
        with serving(tmp_path, transport) as (engine, client):
            job_id = engine.submit("bert_tiny", rounds=40, **SMOKE)

            def cancel_at_round_two(progress: dict) -> None:
                if progress["round"] == 2:
                    engine.cancel(job_id)

            run_all(Recording(client, on_progress=cancel_at_round_two))
            status = engine.status(job_id)
            result = engine.result(job_id)
            rows = stored_rows(engine, "bert_tiny")
        assert status["state"] == JobState.CANCELLED.value
        assert result["stopped_early"]
        # round 2's beat carries the cancel back; the tuning thread is
        # already in round 3 by then, and may finish round 4
        assert 2 <= result["rounds_completed"] <= 4
        assert rows == result["fresh_trials"] > 0  # the measured rows landed


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestWhatARunnerKeeps:
    def test_subgraphs_are_built_once_per_run_of_one_spec(
        self, tmp_path, transport, monkeypatch
    ):
        built: list[str] = []
        build = runner_module.network_tasks

        def counting(network, **kwargs):
            built.append(network)
            return build(network, **kwargs)

        monkeypatch.setattr(runner_module, "network_tasks", counting)
        with serving(tmp_path, transport) as (engine, client):
            for network in ("bert_tiny", "bert_tiny", "mobilenet_v2", "bert_tiny"):
                engine.submit(network, rounds=1, **SMOKE)
            assert run_all(Recording(client)) == 4
        assert built == ["bert_tiny", "mobilenet_v2", "bert_tiny"]

    def test_a_chains_later_jobs_lease_a_reference_and_match_an_older_runner(
        self, tmp_path, transport
    ):
        outcomes = {}
        for announce in (True, False):
            with serving(tmp_path / str(announce), transport) as (engine, client):
                ids = [engine.submit("bert_tiny", rounds=r, **SMOKE) for r in (1, 2, 3)]
                recording = Recording(client, announce=announce)
                assert run_all(recording) == 3
                outcomes[announce] = (
                    [engine.result(job_id) for job_id in ids],
                    [leased["checkpoint"] for leased in recording.leases],
                )
        results, checkpoints = outcomes[True]
        assert checkpoints[0] is None  # a cold store
        for checkpoint in checkpoints[1:]:
            assert set(checkpoint) == {"ref", "trained_trials"}
        old_results, old_checkpoints = outcomes[False]
        assert old_checkpoints[0] is None
        for checkpoint in old_checkpoints[1:]:
            assert isinstance(checkpoint, str)  # the whole file, as before
        assert results[1]["warm_model"] and results[2]["warm_model"]
        assert results == old_results


    def test_the_digest_names_the_uploaded_bytes_and_the_stored_file(
        self, tmp_path, transport, monkeypatch
    ):
        """The runner's local SHA-256 of its upload is the answer's
        ``checkpoint_digest`` and the digest of the file in ``models/``;
        the server received those very bytes, nothing base64-encoded a
        thing, and the chain's later leases are references."""
        encoded = []
        b64encode = base64.b64encode
        monkeypatch.setattr(
            base64, "b64encode", lambda data, *a: encoded.append(len(data)) or b64encode(data, *a)
        )
        with serving(tmp_path, transport) as (engine, client):
            received = []
            complete = engine.complete

            def spy(*args, **kwargs):
                received.append(kwargs.get("blob"))
                return complete(*args, **kwargs)

            monkeypatch.setattr(engine, "complete", spy)
            for rounds in (1, 2, 3):
                engine.submit("bert_tiny", rounds=rounds, **SMOKE)
            recording = Recording(client)
            assert run_all(recording) == 3
            tasks = api.tasks_for("pruner", network_tasks("bert_tiny", top_k=1), get_device("a100"))
            path = engine.models.path_for(store_key_for_tasks(tasks, "pruner"), "pacm")
            on_disk = hashlib.sha256(path.read_bytes()).hexdigest()
        blobs = [blob for blob, _ in recording.uploads]
        digests = [answer["checkpoint_digest"] for _, answer in recording.uploads]
        assert all(isinstance(blob, bytes) for blob in blobs)
        assert received == blobs  # the bytes the engine got are the bytes sent
        assert digests == [hashlib.sha256(blob).hexdigest() for blob in blobs]
        assert digests[-1] == on_disk
        refs = [leased["checkpoint"] for leased in recording.leases[1:]]
        assert [ref["ref"] for ref in refs] == digests[:-1]
        assert encoded == []  # no base64 on the upload (nor on a reference lease)
        for blob in blobs:  # after the header line: the arrays' raw bytes
            header, tail = blob.split(b"\n", 1)
            arrays = json.loads(header)["arrays"]
            assert len(tail) == sum(
                int(np.prod(shape)) * np.dtype(dtype).itemsize for _, dtype, shape in arrays
            )


def trained_checkpoint(trained_trials: int = 12) -> bytes:
    return checkpoint_to_wire(PaCM(seed=5).save_state(), trained_trials=trained_trials)


def rows(count: int) -> list[dict]:
    """Record rows the checkpoint's rank is capped by."""
    return [
        {"task_key": "t", "config_key": f"c{i}", "latency": 1e-3} for i in range(count)
    ]


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestLeaseHave:
    def test_only_the_stored_digest_earns_a_reference(self, tmp_path, transport):
        with serving(tmp_path, transport) as (engine, client):
            first = engine.submit("bert_tiny", **SMOKE)
            leased = client.lease("r1")
            done = client.complete(
                leased["lease_id"], "r1", first, {"final_latency": 1.0}, rows(12),
                blob=trained_checkpoint(),
            )
            digest = done["checkpoint_digest"]
            assert done["checkpoint_stored"] is True
            assert digest == hashlib.sha256(trained_checkpoint()).hexdigest()

            answers = {}
            for label, have in (("none", None), ("stale", "0" * 64), ("held", digest)):
                engine.submit("bert_tiny", **SMOKE)
                kwargs = {} if have is None else {"have": have}
                answers[label] = client.lease("r1", **kwargs)["checkpoint"]
        assert answers["held"] == {"ref": digest, "trained_trials": 12}
        assert answers["none"] == answers["stale"]
        assert base64.b64decode(answers["none"]) == trained_checkpoint()

    def test_a_rejected_checkpoint_returns_no_digest(self, tmp_path, transport):
        with serving(tmp_path, transport) as (engine, client):
            digests = []
            for trained_trials in (12, 3):  # the second is staler: dropped
                job_id = engine.submit("bert_tiny", **SMOKE)
                leased = client.lease("r1")
                done = client.complete(
                    leased["lease_id"], "r1", job_id, {"final_latency": 1.0},
                    rows(12), blob=trained_checkpoint(trained_trials),
                )
                digests.append(done["checkpoint_digest"])
        assert isinstance(digests[0], str)
        assert digests[1] is None

    def test_a_non_string_have_is_400_and_claims_nothing(self, tmp_path, transport):
        with serving(tmp_path, transport) as (engine, client):
            job_id = engine.submit("bert_tiny", **SMOKE)
            with pytest.raises(ServeError) as excinfo:
                client.lease("r1", have=7)
            assert excinfo.value.status == 400
            assert engine.status(job_id)["state"] == JobState.PENDING.value
