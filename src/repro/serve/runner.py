"""Measurement runner: lease jobs, tune, report back.

A runner is the fleet side of the protocol in
:mod:`repro.serve.protocol`: it polls ``lease`` for work, tunes the
leased job locally (warm-started from the seed rows and checkpoint the
lease shipped), heartbeats every round with progress — picking up the
cancellation flag on the way back — and delivers fresh record rows plus
a result summary on completion.  A background keep-alive thread beats
between rounds too, so a long measurement round cannot silently expire
the lease.  :class:`TuningRunner` is the only code that tunes on behalf
of a job, over either transport.

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

import os
import socket
import sys
import threading

from repro import api
from repro.cache import clear_caches
from repro.obs import CAUGHT
from repro.errors import SearchError
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
from repro.service.models import wire_trained_trials
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
        object with ``ServeClient``'s ``register`` / ``lease`` /
        ``heartbeat`` / ``complete`` / ``fail`` — in particular a
        :class:`~repro.serve.engine.JobEngine`, for an in-process
        runner (see :func:`drain`).
    runner_id:
        Identity reported with every protocol call (defaults to
        host-pid).
    poll:
        Seconds to sleep between empty lease polls.
    lease_ttl:
        Requested lease duration; None takes the server's default.
    tags:
        Capability tags (``{key: value-or-values}``) advertised at
        startup and on every lease poll; the matching keys
        (device/method/network) constrain which jobs the server leases
        to this runner.  None keeps the runner anonymous/unconstrained.
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
        tags: dict | None = None,
        auth_token: str | None = None,
    ) -> None:
        self.client = client or ServeClient(server_url, auth_token=auth_token)
        self.runner_id = runner_id or default_runner_id()
        self.poll = poll
        self.lease_ttl = lease_ttl
        self.tags = tags or None
        self._stop = threading.Event()
        self._log = log if log is not None else sys.stderr

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
        ``idle_exit`` exits as soon as a lease poll comes back empty
        (CI and tests: drain the queue, then leave).
        """
        self._register()
        completed = 0
        while not self._stop.is_set():
            try:
                leased = self.client.lease(
                    self.runner_id, ttl=self.lease_ttl, tags=self.tags
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
                self._stop.wait(self.poll)
                continue
            if self._run_leased(leased):
                completed += 1
            if max_jobs is not None and completed >= max_jobs:
                break
        return completed

    def _register(self) -> None:
        """Advertise identity + tags before the first lease poll.

        A server-side rejection (bad tags, bad token) is fatal — the
        runner is misconfigured and every poll would fail the same way.
        A transport failure is not: the server may simply not be up
        yet, and registration rides every lease poll anyway.
        """
        if not self.tags:
            return
        try:
            self.client.register(self.runner_id, self.tags)
            self._say(f"registered with tags {self.tags}")
        except ServeError as exc:
            raise SearchError(
                f"runner registration rejected: {exc}"
            ) from exc
        except OSError as exc:
            self._say(
                f"registration deferred (server unreachable: {exc});"
                " will retry on lease polls"
            )

    # ------------------------------------------------------------------
    def _run_leased(self, leased: dict) -> bool:
        """Tune one leased job end to end; returns True on delivery."""
        lease_id = leased["lease_id"]
        ttl = float(leased.get("ttl") or 30.0)
        job = self._job_from_wire(leased["job"])
        seed_rows = leased.get("seed_rows") or []
        # malformed/incompatible checkpoints decode to None: cold start
        ckpt = leased.get("checkpoint")
        model_state = checkpoint_from_wire(ckpt)
        model_trained_on = (
            wire_trained_trials(ckpt) if model_state is not None else 0
        )
        # a checkpoints=False engine drops completion checkpoints, so
        # don't pay the full-model serialize + upload for it
        ship_checkpoint = bool(leased.get("accepts_checkpoints", True))
        self._say(
            f"leased {job.job_id}: {job.network}@{job.device}"
            f" ({job.method}, {job.rounds} rounds,"
            f" {len(seed_rows)} seed rows,"
            f" {'warm' if model_state is not None else 'cold'} model)"
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

        # Keep-alive between rounds: a single long round must not look
        # like a dead runner.
        beat_stop = threading.Event()

        def beat_loop() -> None:
            while not beat_stop.wait(max(ttl / 3.0, 0.05)):
                beat()

        keeper = threading.Thread(target=beat_loop, daemon=True)
        keeper.start()
        try:
            result, checkpoint = self._tune(
                job,
                seed_rows,
                model_state,
                model_trained_on,
                progress=lambda p: beat(p.to_dict()),
                should_stop=cancelled.is_set,
                ship_checkpoint=ship_checkpoint,
            )
        except Exception as exc:  # noqa: BLE001 — report, don't die
            CAUGHT.labels(site="serve.runner").inc()
            beat_stop.set()
            keeper.join(timeout=ttl)
            return self._deliver_failure(lease_id, job, exc)
        beat_stop.set()
        keeper.join(timeout=ttl)
        return self._deliver_result(lease_id, job, result, checkpoint)

    @staticmethod
    def _job_from_wire(data: dict) -> TuneJob:
        # tolerate servers that ship extra fields this version lacks
        fields = {f.name for f in TuneJob.__dataclass_fields__.values()}
        return TuneJob.from_dict({k: v for k, v in data.items() if k in fields})

    def _tune(
        self,
        job: TuneJob,
        seed_rows: list,
        model_state: dict | None,
        model_trained_on: int,
        progress,
        should_stop,
        ship_checkpoint: bool = True,
    ) -> tuple[TuneResult, dict | None]:
        """Run :func:`repro.api.tune_seeded` for a leased job: the warm
        start (seed rows + model checkpoint) comes off the lease, fresh
        rows and the trained checkpoint go back on it.
        """

        def seeds(tasks):
            spaces = {task.key: task.space for task in tasks}
            return rows_to_records(seed_rows, spaces), model_state, model_trained_on

        try:
            result, state, trained_on = api.tune_seeded(
                job.method,
                network_tasks(job.network, batch=job.batch, top_k=job.top_k_tasks),
                get_device(job.device),
                job.rounds,
                api.resolve_scale(job.scale),
                seeds,
                checkpoint=ship_checkpoint,
                progress=progress,
                should_stop=should_stop,
                seed=job.seed,
            )
            return result, checkpoint_to_wire(state, trained_trials=trained_on)
        finally:
            # one runner process serves many jobs; per-task memo caches
            # must not accumulate across them
            clear_caches()

    def _deliver_result(
        self,
        lease_id: str,
        job: TuneJob,
        result: TuneResult,
        checkpoint: dict | None = None,
    ) -> bool:
        try:
            response = self.client.complete(
                lease_id,
                self.runner_id,
                job.job_id,
                result_to_wire(result),
                fresh_rows(result),
                checkpoint=checkpoint,
            )
        except ServeError as exc:
            # 410: lease expired mid-run — records were still ingested
            self._say(f"complete rejected for {job.job_id}: {exc}")
            return False
        except OSError as exc:
            self._say(f"could not deliver {job.job_id}: {exc}")
            return False
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
