"""Tuning jobs and the priority job queue.

A :class:`TuneJob` is one request to tune a network on a device with a
method; the :class:`JobQueue` holds jobs in priority order and tracks
their lifecycle (``pending -> running -> done | failed | cancelled``),
requeueing failed jobs until their retry budget is spent.  The queue is
thread-safe: in-process runner threads and the HTTP serving layer both
claim jobs from it concurrently, through
:class:`repro.serve.engine.JobEngine`.

Cancellation is cooperative: :meth:`JobQueue.cancel` flips a running
job's ``cancel_requested`` flag, which the tuning loop polls at round
boundaries (``should_stop`` of :meth:`repro.search.tuner.Tuner.tune`);
a pending job cancels immediately.  :meth:`JobQueue.release` puts a
leased job back without burning its retry budget — the path a remote
runner's expired lease takes (see :mod:`repro.serve.protocol`).

The ledger (``jobs.jsonl``) is an append-only journal of those
transitions: :meth:`JobQueue.append_ledger` adds the changed jobs'
rows, :meth:`JobQueue.load_ledger` keeps each job's last one.
"""

from __future__ import annotations

import hashlib
import heapq
import threading
import uuid
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

from repro.journal import append_jsonl, iter_jsonl


class JobState(str, Enum):
    """Lifecycle of a tuning job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves (no heap entry can revive them).
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)


@dataclass
class TuneJob:
    """One tuning request, plus its queue bookkeeping.

    ``priority``: higher runs first (ties break on submission order).
    ``max_retries`` is the number of *additional* attempts after a
    failure.  ``seed`` defaults to a value derived deterministically
    from the job spec, so identical specs tune identically regardless
    of submission order.

    ``submit_seq`` is the queue's submission counter, assigned once at
    submit time and kept across requeues: a retried or released job
    re-enters the queue at its original position among equal-priority
    peers, so scheduling order is a pure function of what was submitted
    (not of failure timing or dict iteration order).
    """

    network: str
    device: str = "a100"
    method: str = "pruner"
    rounds: int = 8
    scale: str = "smoke"
    batch: int = 1
    top_k_tasks: int | None = None
    seed: int | None = None
    priority: int = 0
    max_retries: int = 1
    # queue bookkeeping
    job_id: str = ""
    state: JobState = JobState.PENDING
    attempts: int = 0
    error: str | None = None
    submit_seq: int = 0
    cancel_requested: bool = False
    # who is (last) working on it, and how far along it is — progress
    # is the per-round snapshot dict of RoundProgress.to_dict()
    runner_id: str | None = None
    progress: dict | None = None

    def __post_init__(self) -> None:
        if self.seed is None:
            self.seed = self.derived_seed()

    def derived_seed(self) -> int:
        """Deterministic seed from the job spec (not submission order)."""
        spec = "|".join(
            str(v)
            for v in (
                self.network,
                self.device,
                self.method,
                self.rounds,
                self.scale,
                self.batch,
                self.top_k_tasks,
            )
        )
        return int(hashlib.sha1(spec.encode()).hexdigest()[:8], 16)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["state"] = self.state.value
        return data

    @staticmethod
    def from_dict(data: dict) -> "TuneJob":
        data = dict(data)
        data["state"] = JobState(data.get("state", "pending"))
        return TuneJob(**data)

    def describe(self) -> str:
        return (
            f"{self.job_id or '<unsubmitted>'}  {self.network}@{self.device}"
            f"  method={self.method} rounds={self.rounds} scale={self.scale}"
            f"  seed={self.seed}  [{self.state.value}]"
        )


@dataclass(order=True)
class _QueueEntry:
    sort_key: tuple[int, int]
    job_id: str = field(compare=False)


class JobQueue:
    """Thread-safe priority queue of :class:`TuneJob`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._heap: list[_QueueEntry] = []
        self._jobs: dict[str, TuneJob] = {}
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------
    def submit(self, job: TuneJob) -> str:
        """Enqueue a job; assigns and returns its job id."""
        with self._lock:
            if not job.job_id:
                # unique across processes so ledgers merge cleanly
                job.job_id = f"job-{len(self._jobs) + 1:04d}-{uuid.uuid4().hex[:6]}"
            if job.job_id in self._jobs:
                raise ValueError(f"duplicate job id {job.job_id!r}")
            job.state = JobState.PENDING
            if job.submit_seq == 0:
                self._seq += 1
                job.submit_seq = self._seq
            self._jobs[job.job_id] = job
            self._push(job)
            return job.job_id

    def restore(self, jobs: Iterable[TuneJob]) -> int:
        """Adopt jobs from a persisted ledger (server restart path).

        Jobs that were running when the previous process died requeue
        as pending — unless their cancellation was already requested,
        in which case the cancel wins.  Terminal jobs are kept for
        status queries only.  Returns the number of requeued/pending
        jobs now claimable.
        """
        claimable = 0
        with self._lock:
            for job in jobs:
                if not job.job_id or job.job_id in self._jobs:
                    continue
                if job.state is JobState.RUNNING:
                    # same refund as release(): the process dying under
                    # the claim says nothing about the job, so the
                    # attempt must not burn retry budget
                    job.attempts = max(0, job.attempts - 1)
                    job.runner_id = None
                    job.state = (
                        JobState.CANCELLED
                        if job.cancel_requested
                        else JobState.PENDING
                    )
                self._seq = max(self._seq, job.submit_seq)
                if job.submit_seq == 0:
                    self._seq += 1
                    job.submit_seq = self._seq
                self._jobs[job.job_id] = job
                if job.state is JobState.PENDING:
                    self._push(job)
                    claimable += 1
        return claimable

    def _push(self, job: TuneJob) -> None:
        # Higher priority first; equal priorities break on submission
        # order.  Requeued jobs keep their original submit_seq, so the
        # schedule is deterministic in what was submitted — not in when
        # retries happened or how dicts iterate.
        heapq.heappush(
            self._heap, _QueueEntry((-job.priority, job.submit_seq), job.job_id)
        )

    def claim(
        self, runner_id: str | None = None, predicate=None
    ) -> TuneJob | None:
        """Pop the highest-priority *matching* pending job; mark it running.

        ``predicate`` (job -> bool, e.g. a runner's capability-tag
        filter) narrows what this caller may claim; skipped jobs keep
        their place in the schedule and stay claimable by anyone else.
        It is called while the queue lock is held, so it must not
        acquire locks of its own.  Returns None when nothing matches or
        the queue was closed for draining (see :meth:`close`).
        """
        with self._lock:
            if self._closed:
                return None
            skipped: list[TuneJob] = []
            claimed: TuneJob | None = None
            while self._heap:
                entry = heapq.heappop(self._heap)
                job = self._jobs.get(entry.job_id)
                if job is None or job.state is not JobState.PENDING:
                    continue  # stale heap entry (job was requeued/finished)
                if predicate is not None and not predicate(job):
                    skipped.append(job)  # not this runner's work
                    continue
                job.state = JobState.RUNNING
                job.attempts += 1
                job.runner_id = runner_id
                claimed = job
                break
            # re-push what this caller could not take: submit_seq is
            # preserved, so the schedule other runners see is unchanged
            for job in skipped:
                self._push(job)
            return claimed

    def mark_done(self, job_id: str) -> None:
        """Finish a running job: done, or cancelled if a cancel raced it.

        A cancel request that lands in the job's final round is still a
        cancel — the caller ran to a stop point and returned a partial
        result, and the requester must see the state they asked for.
        """
        with self._lock:
            job = self._jobs[job_id]
            job.state = (
                JobState.CANCELLED if job.cancel_requested else JobState.DONE
            )
            job.error = None

    def mark_failed(self, job_id: str, error: str) -> None:
        """Record a failure; requeue while the retry budget lasts."""
        with self._lock:
            job = self._jobs[job_id]
            job.error = error
            if job.cancel_requested:
                job.state = JobState.CANCELLED
            elif job.attempts <= job.max_retries:
                job.state = JobState.PENDING
                self._push(job)
            else:
                job.state = JobState.FAILED

    def release(self, job_id: str) -> None:
        """Requeue a running job without burning its retry budget.

        The expired-lease path: the runner that claimed this job went
        silent, which says nothing about the job itself — the claim's
        attempt is refunded.  A pending cancel wins over the requeue.
        """
        with self._lock:
            job = self._jobs[job_id]
            if job.state is not JobState.RUNNING:
                return
            job.attempts = max(0, job.attempts - 1)
            job.runner_id = None
            if job.cancel_requested:
                job.state = JobState.CANCELLED
            else:
                job.state = JobState.PENDING
                self._push(job)

    def cancel(self, job_id: str) -> JobState:
        """Request cancellation; returns the job's state afterwards.

        Pending jobs cancel immediately (their heap entries go stale).
        Running jobs get ``cancel_requested`` set, which the tuning
        loop observes at its next round boundary; the state stays
        ``running`` until the worker reaches that stop point.  Terminal
        jobs are left as they are.
        """
        with self._lock:
            job = self._jobs[job_id]
            if job.state is JobState.PENDING:
                job.cancel_requested = True
                job.state = JobState.CANCELLED
            elif job.state is JobState.RUNNING:
                job.cancel_requested = True
            return job.state

    def cancel_requested(self, job_id: str) -> bool:
        """Whether a cancel was requested (the tuner's should_stop)."""
        with self._lock:
            return self._jobs[job_id].cancel_requested

    def update_progress(self, job_id: str, progress: dict) -> None:
        """Attach the latest per-round progress snapshot to a job."""
        with self._lock:
            self._jobs[job_id].progress = dict(progress)

    def close(self) -> None:
        """Stop handing out jobs; pending work stays queued (drain mode).

        Claims return None afterwards, so workers exit after finishing
        what they already hold, and pending jobs survive into the
        ledger as requeueable.
        """
        with self._lock:
            self._closed = True

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> TuneJob:
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> list[TuneJob]:
        """All known jobs in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        """Number of jobs per state."""
        out = {state.value: 0 for state in JobState}
        for job in self.jobs():
            out[job.state.value] += 1
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    # ------------------------------------------------------------------
    # ledger persistence (so `repro.serve status` sees past runs)
    # ------------------------------------------------------------------
    def append_ledger(self, path: str | Path, job_ids: Iterable[str]) -> None:
        """Append the named jobs' current rows to a JSON-lines ledger.

        Called after every transition with the job or jobs it changed:
        the ledger holds one row per transition and is never re-read or
        rewritten (see :func:`~repro.journal.append_jsonl`), so other
        runs' and other processes' rows stay where they are.
        """

        def rows() -> list[dict]:
            with self._lock:
                return [self._jobs[job_id].to_dict() for job_id in job_ids]

        append_jsonl(Path(path), rows)

    @staticmethod
    def load_ledger(path: str | Path) -> list[TuneJob]:
        """Read a ledger back: each job's last complete row, jobs in
        the order they first appear.

        Rows this version cannot interpret (and a torn tail) are
        skipped, so a job whose last append was cut short reads as its
        previous row.  A ledger with one row per job — what versions
        that rewrote the file left — is the special case where nothing
        collapses.
        """
        jobs: dict[str, TuneJob] = {}
        for _, entry in iter_jsonl(Path(path)):
            if entry is None:
                continue
            try:
                job = TuneJob.from_dict(entry)
                jobs[job.job_id] = job
            except (TypeError, ValueError, KeyError):
                continue
        return list(jobs.values())
