"""In-process tuning service: submit -> workers -> best_schedule.

:class:`TuningService` turns the library into a serving layer: callers
submit :class:`~repro.service.jobs.TuneJob` specs, a worker pool drains
the queue, every job warm-starts from the persistent
:class:`~repro.service.store.RecordStore` and writes its fresh records
back, and the best schedule found for a workload survives process exit.

    service = TuningService("~/.cache/pruner", workers=4)
    service.submit("bert_tiny", device="a100", rounds=8)
    service.run()
    service.best_schedule("bert_tiny", device="a100")
"""

from __future__ import annotations

import math
from pathlib import Path

from repro import api
from repro.cache import clear_caches
from repro.errors import ReproError, SearchError
from repro.hardware.device import get_device
from repro.obs import TraceSink
from repro.search.records import TuningRecord
from repro.search.tuner import TuneResult
from repro.service.jobs import JobQueue, JobState, TuneJob
from repro.service.models import ModelStore
from repro.service.store import RecordStore, store_key_for_tasks
from repro.service.workers import WorkerPool
from repro.workloads import network_tasks, resolve_network

LEDGER_NAME = "jobs.jsonl"


class TuningService:
    """Persistent, multi-worker front end over :func:`repro.api.tune_network`.

    Parameters
    ----------
    cache_dir:
        Root of the record store; shared across runs and processes.
        Jobs for the same ``(workload, device, method)`` reuse each
        other's measured trials — and, via the
        :class:`~repro.service.models.ModelStore` under the same root,
        each other's trained cost models.
    workers:
        Worker-pool width for :meth:`run`.
    model_cache:
        Warm-start cost models from persisted checkpoints and persist
        them back at job completion (on by default).  Records still
        seed either way.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        workers: int = 1,
        model_cache: bool = True,
    ) -> None:
        self.store = RecordStore(cache_dir)
        self.models = ModelStore(cache_dir)
        #: per-job round traces (JSONL under ``<cache>/traces/``) — the
        #: durable form of the telemetry heartbeats and round callbacks
        #: carry; ``python -m repro.service status --metrics`` reads it.
        self.traces = TraceSink(self.store.root / "traces")
        self.model_cache = model_cache
        self.queue = JobQueue()
        self.pool = WorkerPool(workers)
        self._results: dict[str, TuneResult] = {}

    # ------------------------------------------------------------------
    # job lifecycle
    # ------------------------------------------------------------------
    def submit(
        self,
        network: str,
        device: str = "a100",
        method: str = "pruner",
        rounds: int = 8,
        scale: str = "smoke",
        batch: int = 1,
        top_k_tasks: int | None = None,
        seed: int | None = None,
        priority: int = 0,
        max_retries: int = 1,
    ) -> str:
        """Queue one tuning job; returns its job id."""
        # reject bad scales/methods/devices/networks at submission
        # time, not mid-run (a bad value fails every worker attempt)
        api.resolve_scale(scale)
        api.resolve_method(method)
        get_device(device)
        # canonicalize aliases (b-tiny -> bert_tiny) so identical specs
        # derive identical seeds and ledger entries
        network = resolve_network(network)
        if method in api.PRETRAINED_METHODS:
            # jobs carry no pretrained parameters, so these methods
            # would deterministically fail inside every worker attempt
            raise SearchError(
                f"method {method!r} needs pretrained model parameters, which "
                "tuning jobs cannot supply; use api.build_tuner directly"
            )
        job = TuneJob(
            network=network,
            device=device,
            method=method,
            rounds=rounds,
            scale=scale,
            batch=batch,
            top_k_tasks=top_k_tasks,
            seed=seed,
            priority=priority,
            max_retries=max_retries,
        )
        return self.queue.submit(job)

    def run(self) -> dict[str, str]:
        """Drain the queue with the worker pool; returns job id -> state.

        Each job warm-starts from the store (via the ``cache_dir`` fast
        path of :func:`repro.api.tune_network`) and persists its fresh
        records on completion.  The job ledger under the cache dir is
        appended so ``python -m repro.service status`` sees past runs.
        """
        results = self.pool.run(self.queue, self._run_job)
        self._results.update(results)
        self.queue.save_ledger(self.store.root / LEDGER_NAME)
        return {job.job_id: job.state.value for job in self.queue.jobs()}

    def cancel(self, job_id: str) -> str:
        """Request cancellation of a job; returns its state afterwards.

        Pending jobs cancel immediately; running jobs stop at their
        next round boundary (cooperative — see :meth:`JobQueue.cancel`)
        and keep the partial result they measured so far.
        """
        self._get_job(job_id)  # unknown ids raise SearchError, not KeyError
        return self.queue.cancel(job_id).value

    def request_drain(self) -> None:
        """Stop starting new jobs; in-flight jobs run to completion.

        The graceful-shutdown path: pending jobs stay queued and reach
        the ledger as requeueable, workers exit once their current job
        finishes, and :meth:`run` returns normally (flushing the
        ledger).
        """
        self.queue.close()

    def _run_job(self, job: TuneJob) -> TuneResult:
        def on_round(progress) -> None:
            snapshot = progress.to_dict()
            self.queue.update_progress(job.job_id, snapshot)
            self.traces.write(job.job_id, {"job_id": job.job_id, **snapshot})

        def should_stop() -> bool:
            return self.queue.cancel_requested(job.job_id)

        try:
            return api.tune_network(
                job.network,
                device=job.device,
                method=job.method,
                rounds=job.rounds,
                scale=job.scale,
                batch=job.batch,
                top_k_tasks=job.top_k_tasks,
                seed=job.seed,
                cache_dir=self.store.root,
                progress=on_round,
                should_stop=should_stop,
                model_cache=self.model_cache,
            )
        finally:
            # Long-lived service processes must not accumulate per-task
            # memo entries (lowering, symbols, feature rows) forever.
            # Clear only when no other job is in flight: wiping the
            # process-wide caches mid-drain would make concurrent jobs
            # re-lower and re-encode work they already paid for.
            counts = self.queue.counts()
            if counts.get("running", 0) <= 1 and counts.get("pending", 0) == 0:
                clear_caches()

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def _get_job(self, job_id: str) -> TuneJob:
        try:
            return self.queue.get(job_id)
        except KeyError:
            raise SearchError(
                f"unknown job id {job_id!r}; this service instance only knows "
                "jobs submitted through it (past runs live in the ledger)"
            ) from None

    def status(self, job_id: str | None = None) -> dict:
        """State of one job, or per-state counts of all jobs."""
        if job_id is not None:
            job = self._get_job(job_id)
            return {
                "job_id": job.job_id,
                "state": job.state.value,
                "attempts": job.attempts,
                "error": job.error,
                "cancel_requested": job.cancel_requested,
                "runner": job.runner_id,
                "progress": job.progress,
            }
        return self.queue.counts()

    def result(self, job_id: str) -> TuneResult:
        """The TuneResult of a finished job.

        Cancelled jobs that completed at least one round return their
        partial result; pending/running/failed jobs raise.
        """
        job = self._get_job(job_id)
        finished = job.state in (JobState.DONE, JobState.CANCELLED)
        if not finished or job_id not in self._results:
            raise SearchError(
                f"job {job_id} is {job.state.value!r}, not done"
                + (f" (last error: {job.error})" if job.error else "")
            )
        return self._results[job_id]

    def best_schedule(
        self,
        network: str,
        device: str = "a100",
        method: str = "pruner",
        batch: int = 1,
        top_k_tasks: int | None = None,
        tensorcore: bool = False,
        **net_kwargs,
    ) -> dict:
        """Best persisted schedule per task of a workload, from the store.

        Works across processes: any earlier run that shared this cache
        dir contributes.  ``tensorcore`` must match the tuning run being
        queried (tensorcore runs store under a different key).  Returns
        a summary dict with per-task best rows and the weighted total
        latency of the tuned tasks.
        """
        api.resolve_method(method)  # a typo'd method must not read as a cache miss
        subgraphs = network_tasks(network, batch=batch, top_k=top_k_tasks, **net_kwargs)
        tasks = api.tasks_for(method, subgraphs, get_device(device), tensorcore=tensorcore)
        key = store_key_for_tasks(tasks, method)
        rows_by_task = self.store.rows_by_task(key)  # one pass, best first
        per_task: dict[str, dict] = {}
        total = 0.0
        covered = True
        for task in tasks:
            # best row whose config still lowers: rows persisted before a
            # sketch change can be unbuildable now (load_records skips
            # them too), so fall back to the best that remains real
            row = next(
                (
                    r
                    for r in rows_by_task.get(task.key, [])
                    if self._still_lowers(r, task)
                ),
                None,
            )
            if row is None:
                covered = False
                continue
            latency = float(row["latency"])
            per_task[task.key] = {
                "latency": latency,
                "config": row.get("config_key", ""),
                "weight": task.weight,
            }
            total += latency * task.weight
        return {
            "network": network,
            "device": device,
            "method": method,
            "tasks": per_task,
            "tuned_latency": total if covered and per_task else math.inf,
            "complete": covered and bool(per_task),
        }

    @staticmethod
    def _still_lowers(row: dict, task) -> bool:
        """Whether a stored row's config still lowers against the task."""
        try:
            TuningRecord.from_dict(row, task.space)
        except (ReproError, KeyError, TypeError, ValueError):
            return False
        return True

    def export(self) -> list[dict]:
        """Every persisted record row, annotated with its store key."""
        out: list[dict] = []
        for key in self.store.keys():
            for row in self.store.load_rows(key):
                row = dict(row)
                row["store"] = {
                    "workload": key.workload,
                    "device": key.device,
                    "method": key.method,
                }
                out.append(row)
        return out
