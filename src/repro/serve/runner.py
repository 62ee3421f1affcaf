"""Measurement runner: lease jobs, tune, report back.

A runner is the fleet side of the protocol in
:mod:`repro.serve.protocol`: it long-polls ``lease`` for work, tunes the
leased job locally (warm-started from the seed rows and checkpoint the
lease shipped), reports every round's progress in a heartbeat — picking
up the cancellation flag on the way back — and delivers fresh record
rows plus a result summary on completion.  The server holds a lease
request until a job arrives, so a job submitted to an idle fleet starts
at once, not at a runner's next poll.  :class:`TuningRunner` is the only
code that tunes on behalf of a job, over either transport.

Heartbeats leave from a keeper thread, never the tuning thread: it
sends each round's progress in order, beats every ``ttl / 3`` seconds
when no round has ended (so a long measurement round cannot silently
expire the lease), and has sent everything queued before the job is
completed or failed.  A cancel is therefore seen one round later than
a blocking beat would see it: the job stops within two rounds.

Between jobs a runner keeps two things: the last spec's subgraphs
(consecutive jobs of one spec skip rebuilding the network graph) and
the checkpoint it last delivered, if the server stored it.  A runner
builds its checkpoint blob once and uploads it raw; the server stores
those bytes, so the digest it answers with is the SHA-256 the runner
computes locally, and only then does the runner hold the checkpoint.
The next lease names that digest as ``have``; when it is still the
stored one the server sends a reference instead of the file.

Over a socket, run one per machine (or several per big machine)::

    python -m repro.serve runner --server http://tuner.example:8537

In process, :func:`drain` runs one with the
:class:`~repro.serve.engine.JobEngine` itself as its client.  A job is
one core's work, so scale with processes: ``server`` + N x ``runner``.

Crash behavior is the protocol's whole point: a runner that dies
mid-job simply stops heartbeating, the lease expires, and the engine
requeues the job for the next runner — no state to clean up.
"""

from __future__ import annotations

import hashlib
import os
import queue
import socket
import sys
import threading
import time

from repro import api
from repro.cache import clear_caches
from repro.obs import CAUGHT
from repro.hardware.device import get_device
from repro.search.tuner import TuneResult
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    ServeError,
    checkpoint_from_wire,
    checkpoint_to_wire,
    fresh_rows,
    result_to_wire,
)
from repro.service.jobs import TuneJob
from repro.service.store import rows_to_records
from repro.workloads import network_tasks


def default_runner_id() -> str:
    """host-pid identity: unique per process, readable in job status."""
    return f"{socket.gethostname()}-{os.getpid()}"


class TuningRunner:
    """Claims jobs from a job engine and measures them locally.

    Parameters
    ----------
    server_url:
        Base URL of the ``python -m repro.serve server`` process.
    client:
        What to lease from instead of ``ServeClient(server_url)``: any
        object with ``ServeClient``'s ``lease`` / ``heartbeat`` /
        ``complete`` / ``fail`` — in particular a
        :class:`~repro.serve.engine.JobEngine`, for an in-process
        runner (see :func:`drain`).
    runner_id:
        Identity reported with every protocol call (defaults to
        host-pid).
    poll:
        Longest one lease request waits at the server for a job (the
        long poll's ``wait``); an empty answer is followed by the next
        request at once.  A server that answers sooner, without waiting,
        is asked no more than once per ``poll``.
    lease_ttl:
        Requested lease duration; None takes the server's default.
    auth_token:
        Bearer token for a server started with ``--auth-token``.
    """

    def __init__(
        self,
        server_url: str | None = None,
        runner_id: str | None = None,
        poll: float = 0.5,
        lease_ttl: float | None = None,
        client=None,
        log=None,
        auth_token: str | None = None,
    ) -> None:
        self.client = client or ServeClient(server_url, auth_token=auth_token)
        self.runner_id = runner_id or default_runner_id()
        self.poll = poll
        self.lease_ttl = lease_ttl
        self._stop = threading.Event()
        self._log = log if log is not None else sys.stderr
        #: ``((network, batch, top_k_tasks), subgraphs)`` of the last job
        self._subgraphs: tuple[tuple, list] | None = None
        #: ``(digest, model state)`` of the checkpoint the server stored
        #: from this runner's last delivery, the state with its
        #: ``trained_trials`` like a decoded one; load_state copies
        #: every array, so the state stays as delivered across jobs
        self._held: tuple[str, dict] | None = None

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the loop to exit after the current job (signal handler)."""
        self._stop.set()

    def _say(self, message: str) -> None:
        print(f"[runner {self.runner_id}] {message}", file=self._log, flush=True)

    def run_forever(
        self, max_jobs: int | None = None, idle_exit: bool = False
    ) -> int:
        """Lease-and-tune until stopped; returns jobs completed.

        ``max_jobs`` bounds the number of jobs this process takes;
        ``idle_exit`` asks without waiting and exits as soon as a lease
        comes back empty (CI and tests: drain the queue, then leave).
        """
        completed = 0
        wait = 0.0 if idle_exit else self.poll
        while not self._stop.is_set():
            asked = time.monotonic()
            held = {} if self._held is None else {"have": self._held[0]}
            try:
                leased = self.client.lease(
                    self.runner_id, ttl=self.lease_ttl, wait=wait, **held
                )
            except (ServeError, OSError) as exc:
                self._say(f"lease poll failed: {exc}")
                if idle_exit:
                    break
                self._stop.wait(self.poll)
                continue
            if leased is None:
                if idle_exit:
                    break
                # a server that does not hold the request (an older one,
                # or one draining its queue) answers at once: never poll
                # it faster than once per ``poll``
                self._stop.wait(max(0.0, wait - (time.monotonic() - asked)))
                continue
            if self._run_leased(leased):
                completed += 1
            if max_jobs is not None and completed >= max_jobs:
                break
        return completed

    # ------------------------------------------------------------------
    def _run_leased(self, leased: dict) -> bool:
        """Tune one leased job end to end; returns True on delivery."""
        lease_id = leased["lease_id"]
        ttl = float(leased.get("ttl") or 30.0)
        job = self._job_from_wire(leased["job"])
        self._say(
            f"leased {job.job_id}: {job.network}@{job.device}"
            f" ({job.method}, {job.rounds} rounds,"
            f" {len(leased.get('seed_rows') or [])} seed rows,"
            f" {'a' if leased.get('checkpoint') else 'no'} checkpoint)"
        )

        cancelled = threading.Event()

        def beat(progress: dict | None = None) -> None:
            try:
                response = self.client.heartbeat(
                    lease_id, self.runner_id, progress=progress
                )
            except ServeError as exc:
                if exc.status in (404, 409, 410):
                    # lease gone (job requeued or taken over): treat as
                    # a cancel and stop at the next round boundary; the
                    # final complete call still ships measured rows,
                    # which the server ingests even on an expired lease
                    cancelled.set()
                return
            except OSError:
                return  # transient network: the next beat retries
            if response.get("cancel"):
                cancelled.set()

        # Round progress queues here and leaves from the keeper, in
        # order; None ends the keeper once everything before it is sent.
        beats: queue.SimpleQueue = queue.SimpleQueue()

        def beat_loop() -> None:
            while True:
                try:
                    progress = beats.get(timeout=max(ttl / 3.0, 0.05))
                except queue.Empty:
                    beat()  # a long round must not look like a dead runner
                    continue
                if progress is None:
                    return
                beat(progress)

        keeper = threading.Thread(target=beat_loop, daemon=True)
        keeper.start()
        try:
            outcome = self._tune(
                job,
                leased,
                progress=lambda p: beats.put(p.to_dict()),
                should_stop=cancelled.is_set,
            )
        except Exception as exc:  # noqa: BLE001 — report, don't die
            CAUGHT.labels(site="serve.runner").inc()
            outcome = exc
        finally:
            beats.put(None)
            keeper.join()
        if isinstance(outcome, Exception):
            return self._deliver_failure(lease_id, job, outcome)
        return self._deliver_result(lease_id, job, *outcome)

    @staticmethod
    def _job_from_wire(data: dict) -> TuneJob:
        # tolerate servers that ship extra fields this version lacks
        fields = {f.name for f in TuneJob.__dataclass_fields__.values()}
        return TuneJob.from_dict({k: v for k, v in data.items() if k in fields})

    def _tune(
        self, job: TuneJob, leased: dict, progress, should_stop
    ) -> tuple[TuneResult, dict | None, bytes | None]:
        """Tune a leased job: the warm start (seed rows + model
        checkpoint) comes off the lease; the result, the trained model
        state (with its ``trained_trials``) and its checkpoint blob go
        back.  The run is capped at ``rounds * measure_per_round``
        trials, seeded ones included, so known configs are not
        re-measured.  The checkpoint is ranked by what the model was
        fitted on, not by the log size.
        """
        try:
            search = api.resolve_scale(job.scale)
            device = get_device(job.device)
            spec = (job.network, job.batch, job.top_k_tasks)
            if self._subgraphs is None or self._subgraphs[0] != spec:
                built = network_tasks(job.network, batch=job.batch, top_k=job.top_k_tasks)
                self._subgraphs = (spec, built)
            subgraphs = self._subgraphs[1]
            tasks = api.tasks_for(job.method, subgraphs, device)
            spaces = {task.key: task.space for task in tasks}
            model_state = self._model_state(leased.get("checkpoint"))
            tuner = api.build_tuner(
                job.method,
                subgraphs,
                device,
                search=search,
                seed=job.seed,
                tasks=tasks,
                initial_records=rows_to_records(leased.get("seed_rows") or [], spaces),
                initial_model_state=model_state,
                initial_model_trained_on=(
                    model_state["trained_trials"] if model_state is not None else 0
                ),
            )
            result = tuner.tune(
                job.rounds,
                trial_budget=job.rounds * search.measure_per_round,
                progress=progress,
                should_stop=should_stop,
            )
            state, trained = tuner.checkpoint(), tuner.model_trained_on
            if state is not None:
                state = {**state, "trained_trials": trained}
            return result, state, checkpoint_to_wire(state, trained)
        finally:
            # one runner process serves many jobs; per-task memo caches
            # must not accumulate across them
            clear_caches()

    def _model_state(self, wire) -> dict | None:
        """The model state a lease's ``checkpoint`` field carries.

        A reference names the state this runner holds.  Anything that
        does not decode — and a reference to a state this runner does
        not hold — is a cold start, never an error.
        """
        if isinstance(wire, dict):
            held, ref = self._held, wire.get("ref")
            if held is not None and isinstance(ref, str) and held[0] == ref:
                return held[1]
            return None
        return checkpoint_from_wire(wire)

    def _deliver_result(
        self,
        lease_id: str,
        job: TuneJob,
        result: TuneResult,
        state: dict | None,
        blob: bytes | None,
    ) -> bool:
        try:
            response = self.client.complete(
                lease_id,
                self.runner_id,
                job.job_id,
                result_to_wire(result),
                fresh_rows(result),
                blob=blob,
            )
        except ServeError as exc:
            # 410: lease expired mid-run — records were still ingested
            self._say(f"complete rejected for {job.job_id}: {exc}")
            return False
        except OSError as exc:
            self._say(f"could not deliver {job.job_id}: {exc}")
            return False
        if blob is not None:
            # hold what the server stored: these very bytes, or nothing
            digest = hashlib.sha256(blob).hexdigest()
            stored = response.get("checkpoint_digest") == digest
            self._held = (digest, state) if stored else None
        self._say(
            f"finished {job.job_id} [{response.get('state', '?')}]"
            f" ({result.fresh_trials} fresh trials,"
            f" {response.get('records_ingested', 0)} rows ingested)"
        )
        return True

    def _deliver_failure(self, lease_id: str, job: TuneJob, exc: Exception) -> bool:
        error = f"{type(exc).__name__}: {exc}"
        self._say(f"job {job.job_id} failed: {error}")
        try:
            self.client.fail(lease_id, self.runner_id, error)
        except (ServeError, OSError) as report_exc:
            self._say(f"could not report failure: {report_exc}")
        return False


def drain(engine) -> int:
    """Drain ``engine``'s queue in process; returns jobs completed.

    One :class:`TuningRunner` whose client is the engine itself runs
    until a lease poll comes back empty: job for job what a runner over
    a socket does, each job seeded from its own spec.
    """
    return TuningRunner(client=engine).run_forever(idle_exit=True)
