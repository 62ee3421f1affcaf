"""Stateful property test of :class:`repro.serve.engine.JobEngine`.

A Hypothesis ``RuleBasedStateMachine`` drives one engine — no sockets,
no tuning, an injectable lease clock — through random interleavings of
submit, (tagged) lease, heartbeat, clock advance, reap, complete, fail,
cancel and crash-restart from the cache dir, next to a plain-dict model
of what every job's state must be.  After every step:

* no job is lost, and the engine's per-job state, attempt count, cancel
  flag and runner equal the model's (so a lease expiry refunds the
  attempt exactly once — never twice via a late heartbeat/complete);
* no job is leased to two runners: live leases and running jobs pair up;
* terminal states are final;
* a lease hands out the highest-priority matching pending job, and
  among equal priorities the earliest submitted (``submit_seq``);
* every job's event stream is gap-free: sequence numbers 1..n, n being
  the number of transitions the model saw since the last restart;
* what reached the disk is the model: a second engine opened on the same
  cache dir restores every job, in submission order, to the state,
  attempt count and result a crash at this step would leave.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    multiple,
    rule,
)

from repro.serve.engine import JobEngine
from repro.serve.protocol import ServeError
from repro.service.jobs import TERMINAL_STATES

TTL = 30.0
#: runner id -> the device tag it registers (None: anonymous, takes anything)
RUNNERS = {"r-a100": "a100", "r-t4": "t4", "r-any": None}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class EngineMachine(RuleBasedStateMachine):
    leases = Bundle("leases")

    def __init__(self) -> None:
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.clock = FakeClock()
        self.engine = JobEngine(self.tmp.name, lease_ttl=TTL, clock=self.clock)
        #: job id -> {state, attempts, cancel, runner, device, priority,
        #: retries, seq}; seq is the submission index
        self.jobs: dict[str, dict] = {}
        #: lease id -> {job, runner, deadline}: granted and not yet popped
        self.held: dict[str, dict] = {}
        self.events: dict[str, int] = {}  # job id -> events since restart
        self.final: dict[str, str] = {}  # job id -> first terminal state seen

    def teardown(self) -> None:
        self.tmp.cleanup()

    # ------------------------------------------------------------------
    # the model's half of each transition
    # ------------------------------------------------------------------
    def _release(self, job: dict) -> None:
        """JobQueue.release: refund the attempt; a pending cancel wins."""
        if job["state"] != "running":
            return
        job["attempts"] -= 1
        job["runner"] = None
        job["state"] = "cancelled" if job["cancel"] else "pending"

    def _reap(self) -> None:
        """What ``engine.reap()`` must do at the current clock reading."""
        for lease_id in [k for k, v in self.held.items() if v["deadline"] < self.clock.now]:
            lease = self.held.pop(lease_id)
            self._release(self.jobs[lease["job"]])
            self.events[lease["job"]] += 1  # "requeued"

    def _expect_gone(self, call, *args) -> None:
        with pytest.raises(ServeError) as excinfo:
            call(*args)
        assert excinfo.value.status == 410

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    @rule(
        device=st.sampled_from(["a100", "t4"]),
        priority=st.integers(0, 2),
        retries=st.integers(0, 2),
    )
    def submit(self, device, priority, retries):
        job_id = self.engine.submit(
            "bert_tiny",
            device=device,
            priority=priority,
            max_retries=retries,
            rounds=1,
            top_k_tasks=1,
        )
        assert job_id not in self.jobs
        self.jobs[job_id] = dict(
            state="pending", attempts=0, cancel=False, runner=None,
            device=device, priority=priority, retries=retries, seq=len(self.jobs),
        )
        self.events[job_id] = 1  # "submitted"

    @rule(target=leases, runner=st.sampled_from(sorted(RUNNERS)))
    def lease(self, runner):
        tag = RUNNERS[runner]
        leased = self.engine.lease(
            runner, tags=None if tag is None else {"device": tag}
        )
        self._reap()
        # priority first, then submission order (restarts included)
        matching = sorted(
            (-job["priority"], job["seq"], job_id)
            for job_id, job in self.jobs.items()
            if job["state"] == "pending" and tag in (None, job["device"])
        )
        if not matching:
            assert leased is None
            return multiple()
        job_id = matching[0][2]
        assert leased["job"]["job_id"] == job_id
        job = self.jobs[job_id]
        job.update(state="running", attempts=job["attempts"] + 1, runner=runner)
        self.held[leased["lease_id"]] = dict(
            job=job_id, runner=runner, deadline=self.clock.now + TTL
        )
        self.events[job_id] += 1  # "leased"
        return leased["lease_id"]

    @rule(seconds=st.sampled_from([1.0, 10.0, 29.0, 31.0, 60.0]))
    def advance(self, seconds):
        self.clock.now += seconds

    @rule()
    def reap(self):
        self.engine.reap()
        self._reap()

    @rule(lease_id=leases, round_index=st.one_of(st.none(), st.integers(1, 3)))
    def heartbeat(self, lease_id, round_index):
        progress = None if round_index is None else {"round": round_index}
        lease = self.held.get(lease_id)
        live = lease is not None and lease["deadline"] >= self.clock.now
        self._reap()
        if not live:
            self._expect_gone(self.engine.heartbeat, lease_id, "whoever", progress)
            return
        reply = self.engine.heartbeat(lease_id, lease["runner"], progress)
        lease["deadline"] = self.clock.now + TTL
        assert reply["job_id"] == lease["job"]
        assert reply["cancel"] == self.jobs[lease["job"]]["cancel"]
        if round_index is not None and lease.get("round") != round_index:
            lease["round"] = round_index
            self.events[lease["job"]] += 1  # "round", once per fresh index

    @rule(lease_id=consumes(leases))
    def complete(self, lease_id):
        lease = self.held.get(lease_id)
        live = lease is not None and lease["deadline"] >= self.clock.now
        self._reap()
        args = (lease_id, "whoever" if lease is None else lease["runner"], None, {"ok": 1}, [])
        if not live:
            self._expect_gone(self.engine.complete, *args)
            return
        reply = self.engine.complete(*args)
        del self.held[lease_id]
        job = self.jobs[lease["job"]]
        job["state"] = "cancelled" if job["cancel"] else "done"
        assert reply["state"] == job["state"]
        assert self.engine.result(lease["job"]) == {"ok": 1}
        self.events[lease["job"]] += 1  # "done"

    @rule(lease_id=consumes(leases))
    def fail(self, lease_id):
        lease = self.held.get(lease_id)
        live = lease is not None and lease["deadline"] >= self.clock.now
        self._reap()
        if not live:
            self._expect_gone(self.engine.fail, lease_id, "whoever", "boom")
            return
        reply = self.engine.fail(lease_id, lease["runner"], "boom")
        del self.held[lease_id]
        job = self.jobs[lease["job"]]
        if job["cancel"]:
            job["state"] = "cancelled"
        elif job["attempts"] <= job["retries"]:
            job["state"] = "pending"
        else:
            job["state"] = "failed"
        assert reply["state"] == job["state"]
        self.events[lease["job"]] += 1  # "failed"

    @rule(data=st.data())
    def cancel(self, data):
        if not self.jobs:
            return
        job_id = data.draw(st.sampled_from(sorted(self.jobs)))
        job = self.jobs[job_id]
        if job["state"] == "pending":
            job.update(state="cancelled", cancel=True)
        elif job["state"] == "running":
            job["cancel"] = True  # cooperative: lands at complete/fail/expiry
        assert self.engine.cancel(job_id).value == job["state"]
        self.events[job_id] += 1  # "cancelled" / "cancel-requested"

    @rule(graceful=st.booleans())
    def restart(self, graceful):
        """Stop (or crash) and come back from the cache dir alone."""
        if graceful:
            self.engine.shutdown()
        self.engine = JobEngine(self.tmp.name, lease_ttl=TTL, clock=self.clock)
        self.held.clear()  # leases die with the process...
        for job in self.jobs.values():
            self._release(job)  # ...and their jobs requeue, refunded
        self.events = dict.fromkeys(self.jobs, 0)  # streams are in-memory

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def engine_matches_model(self):
        # read the queue directly: status()/jobs() would reap, and the
        # model reaps only where the engine's own entry points do
        actual = {
            job.job_id: dict(
                state=job.state.value,
                attempts=job.attempts,
                cancel=job.cancel_requested,
                runner=job.runner_id if job.state.value == "running" else None,
            )
            for job in self.engine.queue.jobs()
        }
        expected = {
            job_id: dict(
                state=job["state"],
                attempts=job["attempts"],
                cancel=job["cancel"],
                runner=job["runner"] if job["state"] == "running" else None,
            )
            for job_id, job in self.jobs.items()
        }
        assert actual == expected

    @invariant()
    def one_lease_per_running_job(self):
        assert self.engine.leases.active() == len(self.held)
        leased = sorted(lease["job"] for lease in self.held.values())
        running = sorted(j for j, job in self.jobs.items() if job["state"] == "running")
        assert leased == running  # sorted lists: a doubly leased job shows

    @invariant()
    def terminal_states_are_final(self):
        for job in self.engine.queue.jobs():
            if job.state in TERMINAL_STATES:
                assert self.final.setdefault(job.job_id, job.state.value) == job.state.value
            else:
                assert job.job_id not in self.final
            if job.state.value == "done":  # results.jsonl: restarts included
                assert self.engine.result(job.job_id) == {"ok": 1}

    @invariant()
    def reopened_engine_matches_model(self):
        """The ledger is one appended row per transition; its last row
        per job must be the job, whichever step the process dies at."""
        reopened = JobEngine(self.tmp.name, lease_ttl=TTL, clock=self.clock)
        actual = [
            (job.job_id, job.state.value, job.attempts, job.cancel_requested)
            for job in reopened.queue.jobs()
        ]
        expected = []
        for job_id, job in self.jobs.items():
            crashed = dict(job)
            self._release(crashed)  # what restore() does to a running job
            expected.append(
                (job_id, crashed["state"], crashed["attempts"], crashed["cancel"])
            )
            if job["state"] == "done":
                assert reopened.result(job_id) == {"ok": 1}
        assert actual == expected  # lists: submission order survives too

    @invariant()
    def event_streams_are_gap_free(self):
        for job_id, count in self.events.items():
            seqs = [e["seq"] for e in self.engine.broker.wait_for(job_id, 0, 0.0)]
            assert seqs == list(range(1, count + 1)), (job_id, seqs, count)


TestEngineMachine = EngineMachine.TestCase
TestEngineMachine.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
