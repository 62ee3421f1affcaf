"""The job engine: one transport-free state machine for tuning jobs.

:class:`JobEngine` owns what a tuning deployment must agree on: the
:class:`~repro.service.jobs.JobQueue`, the leases on its running jobs,
the per-job event streams, the record and model stores, the
round-trace sink, and the ledger and result summaries that let all of
it survive a restart.  It never tunes and never opens a socket: work
leaves through :meth:`JobEngine.lease` and comes back through
:meth:`JobEngine.complete` / :meth:`JobEngine.fail`, whoever calls
them.  Refusals raise :class:`~repro.serve.protocol.ServeError`.

:class:`repro.serve.app.ServeApp` puts the engine on the wire; and since
the runner-protocol methods carry :class:`~repro.serve.client.
ServeClient`'s signatures, a :class:`~repro.serve.runner.TuningRunner`
takes the engine itself as its client — an in-process worker is a
runner that leases without a socket (:func:`repro.serve.runner.drain`).
"""

from __future__ import annotations

import math
import threading
import time
from pathlib import Path

from repro import api
from repro.errors import ReproError, SearchError
from repro.hardware.device import get_device
from repro.journal import append_jsonl, iter_jsonl
from repro.obs import MetricsRegistry, TraceSink
from repro.serve.protocol import (
    DEFAULT_LEASE_TTL,
    EventBroker,
    LeaseTable,
    ServeError,
)
from repro.service.jobs import TERMINAL_STATES, JobQueue, JobState, TuneJob
from repro.service.models import ModelStore
from repro.service.store import (
    RecordStore,
    StoreKey,
    rows_to_records,
    store_key_for_tasks,
)
from repro.workloads import network_tasks, resolve_network

LEDGER_NAME = "jobs.jsonl"
RESULTS_NAME = "results.jsonl"

#: Longest an :meth:`JobEngine.events` long-poll may block.  Callers
#: asking for more get clamped, not refused — the cursor makes
#: re-polling free.
MAX_EVENTS_TIMEOUT = 60.0

#: Longest a :meth:`JobEngine.lease` long poll may wait for a job;
#: longer requests are clamped the same way.
MAX_LEASE_WAIT = 60.0

#: The job-spec fields :meth:`JobEngine.submit` accepts, by type.
#: Integer fields map to ``(minimum or None, whether null is allowed)``.
_STR_FIELDS = ("network", "device", "method", "scale")
_INT_FIELDS = {
    "rounds": (1, False),
    "batch": (1, False),
    "top_k_tasks": (1, True),
    "seed": (None, True),
    "priority": (None, False),
    "max_retries": (0, False),
}
#: Everything else is refused — a misspelled field must not silently
#: become a default.
SPEC_FIELDS = frozenset(_STR_FIELDS) | frozenset(_INT_FIELDS)


def _checked_spec(spec: dict) -> dict:
    """A job spec with every field type- and range-checked (400 if not).

    A spec that passes here can still fail to tune, but not for a
    reason visible in the request: ``rounds: 0`` would "finish" with no
    trials, ``batch: 0`` or ``top_k_tasks: 0`` would burn every retry
    inside a runner.  Integral floats (JSON ``8.0``) read as integers;
    bools and numeric strings do not.
    """
    out = {}
    for field, value in spec.items():
        if field in _STR_FIELDS:
            if not isinstance(value, str) or not value:
                raise ServeError(
                    400, f"job field {field!r} must be a non-empty string, got {value!r}"
                )
        elif field in _INT_FIELDS:
            minimum, nullable = _INT_FIELDS[field]
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            if value is None and nullable:
                pass
            elif isinstance(value, bool) or not isinstance(value, int):
                raise ServeError(
                    400, f"job field {field!r} must be an integer, got {value!r}"
                )
            elif minimum is not None and value < minimum:
                raise ServeError(
                    400, f"job field {field!r} must be >= {minimum}, got {value}"
                )
        else:
            raise ServeError(400, f"unknown job field {field!r}")
        out[field] = value
    return out


def _seconds(name: str, value) -> float:
    """A request's duration field as a float (400 if not a number).

    Bools, strings and NaN are refused: ``json.loads`` reads ``NaN``,
    and a NaN compares False against every bound, so it would slip past
    range checks — a NaN lease TTL would never expire.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServeError(400, f"{name} must be a number of seconds, got {value!r}")
    value = float(value)
    if math.isnan(value):
        raise ServeError(400, f"{name} must be a number of seconds, got nan")
    return value


class JobEngine:
    """Job queue + leases + stores + their persistence.

    Parameters
    ----------
    cache_dir:
        Shared root: record and model stores, ``jobs.jsonl`` (ledger),
        ``results.jsonl``, ``traces/``.  All of it is re-read here, so
        a restarted engine carries on; jobs leased when the previous
        process died requeue as pending.  Afterwards the ledger and the
        result summaries are only appended to — a state change writes
        the changed job's row and reads nothing back.  Nothing is
        written before the first state change (read-only use over a
        mistyped path leaves no directory behind).
    lease_ttl:
        Seconds a runner may go silent before its lease expires and
        the job requeues.
    clock:
        Injectable monotonic clock for the lease table (tests expire
        leases without sleeping).
    max_lease_ttl:
        Longest TTL a runner may request on a lease (400 above it);
        defaults to 10x ``lease_ttl``.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        lease_ttl: float | None = None,
        clock=None,
        max_lease_ttl: float | None = None,
    ) -> None:
        self.store = RecordStore(cache_dir)
        self.models = ModelStore(cache_dir)
        #: per-job round traces (JSONL under ``<cache>/traces/``) — the
        #: durable form of the telemetry heartbeats carry; ``python -m
        #: repro.serve status --metrics`` reads it.
        self.traces = TraceSink(self.store.root / "traces")
        self.queue = JobQueue()
        self.clock = clock if clock is not None else time.monotonic
        self.leases = LeaseTable(
            ttl=DEFAULT_LEASE_TTL if lease_ttl is None else lease_ttl,
            clock=self.clock,
            max_ttl=max_lease_ttl,
        )
        # Job progress fanout for events() long-polls.  Uses real wall
        # time for its waits (never the injectable clock): a frozen
        # fake clock + Condition.wait would spin forever.
        self.broker = EventBroker()
        self._results: dict[str, dict] = {}
        self._results_lock = threading.Lock()
        self._store_keys: dict[tuple, StoreKey] = {}
        self._store_keys_lock = threading.Lock()
        # Engine-owned metrics: queue/lease gauges are pulled at scrape
        # time by a collector (an idle engine pays nothing), runner
        # round counters and stage histograms are pushed by heartbeats.
        self.metrics = MetricsRegistry()
        self._started = time.monotonic()
        self._runner_rounds = self.metrics.counter(
            "repro_runner_rounds_total",
            "Tuning rounds reported by runner heartbeats.",
            labels=("runner",),
        )
        self._runner_stages = self.metrics.histogram(
            "repro_runner_stage_seconds",
            "Per-stage wall seconds from runner round reports.",
            labels=("runner", "stage"),
        )
        self.metrics.add_collector(self._collect)
        #: last round index noted per lease — heartbeats repeat a round's
        #: progress until the next one lands; only fresh rounds count.
        #: Guarded by ``_rounds_lock``: heartbeats from different runner
        #: threads mutate it concurrently with the reaper.
        self._noted_rounds: dict[str, int] = {}
        self._rounds_lock = threading.Lock()
        self._restore()

    # ------------------------------------------------------------------
    # persistence (restart survival)
    # ------------------------------------------------------------------
    def _restore(self) -> None:
        """Reload the ledger and result summaries from the cache dir.

        Both files hold one appended row per state change; the last
        complete row of a job is its state.  Jobs that were running
        when the previous process died requeue as pending (their
        runners' leases died with it).
        """
        self.queue.restore(JobQueue.load_ledger(self.store.root / LEDGER_NAME))
        with self._results_lock:
            for _, row in iter_jsonl(self.store.root / RESULTS_NAME):
                if row is None or not isinstance(row.get("job_id"), str):
                    continue
                if isinstance(row.get("result"), dict):
                    self._results[row["job_id"]] = row["result"]

    def _append_ledger(self, *job_ids: str) -> None:
        """Append the current rows of the jobs a transition changed."""
        if job_ids:
            self.queue.append_ledger(self.store.root / LEDGER_NAME, job_ids)

    def _save_result(self, job_id: str, result: dict) -> None:
        """Persist one result summary (one appended row, like the ledger)."""
        with self._results_lock:
            self._results[job_id] = result
        append_jsonl(
            self.store.root / RESULTS_NAME,
            lambda: [{"job_id": job_id, "result": result}],
        )

    def shutdown(self) -> None:
        """Graceful stop: close the queue, requeue leases, flush state.

        Runners lose their leases (their next heartbeat is refused and
        they abandon the job); the released jobs reach the ledger as
        pending, so a restarted engine — or another one sharing the
        cache dir — picks them straight up.
        """
        self.queue.close()
        drained = self.leases.drain()
        for lease in drained:
            self.queue.release(lease.job_id)
        self._append_ledger(*(lease.job_id for lease in drained))
        self.broker.close()  # wake in-flight event long-polls

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _job(self, job_id: str) -> TuneJob:
        try:
            return self.queue.get(job_id)
        except KeyError:
            raise ServeError(404, f"unknown job id {job_id!r}") from None

    @staticmethod
    def _job_payload(job: TuneJob) -> dict:
        return {
            "job_id": job.job_id,
            "state": job.state.value,
            "network": job.network,
            "device": job.device,
            "method": job.method,
            "rounds": job.rounds,
            "scale": job.scale,
            "attempts": job.attempts,
            "error": job.error,
            "cancel_requested": job.cancel_requested,
            "runner": job.runner_id,
            "progress": job.progress,
        }

    def _store_key_for(self, job: TuneJob) -> StoreKey | None:
        """The record-store key a job's tasks read and write (cached).

        Building tasks means generating sketches, so the key is
        memoized per spec; a spec that fails to build (it passed
        submit-time validation, so this is rare) reads as "no seed
        rows" rather than an error.
        """
        spec = (job.network, job.device, job.method, job.batch, job.top_k_tasks)
        with self._store_keys_lock:
            if spec in self._store_keys:
                return self._store_keys[spec]
        try:
            subgraphs = network_tasks(
                job.network, batch=job.batch, top_k=job.top_k_tasks
            )
            tasks = api.tasks_for(job.method, subgraphs, get_device(job.device))
            key = store_key_for_tasks(tasks, job.method)
        except ReproError:
            return None
        with self._store_keys_lock:
            self._store_keys[spec] = key
        return key

    def reap(self) -> None:
        """Requeue jobs whose runner went silent past its lease.

        Every reading entry point calls this first, so a pure poller
        sees a dead runner's job requeue instead of ``running``
        forever.  Persists the ledger when anything actually expired:
        the requeue (running -> pending) must survive a crash even when
        the only traffic that triggered it was a probe rather than a
        state-changing request.
        """
        expired = self.leases.expired()
        for lease in expired:
            self.queue.release(lease.job_id)
            with self._rounds_lock:
                self._noted_rounds.pop(lease.lease_id, None)
            try:
                state = self.queue.get(lease.job_id).state.value
            except KeyError:
                state = JobState.PENDING.value
            self.broker.publish(
                lease.job_id,
                {
                    "type": "requeued",
                    "state": state,
                    "reason": "lease-expired",
                    "runner": lease.runner_id,
                },
            )
        self._append_ledger(*(lease.job_id for lease in expired))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _collect(self, registry: MetricsRegistry) -> None:
        """Scrape-time pull of queue/lease state into the registry."""
        counts = self.queue.counts()
        jobs = registry.gauge(
            "repro_jobs", "Known jobs by lifecycle state.", labels=("state",)
        )
        for state, n in counts.items():
            jobs.labels(state=state).set(n)
        registry.gauge(
            "repro_jobs_queue_depth", "Jobs waiting to be claimed."
        ).set(counts.get("pending", 0))
        registry.gauge(
            "repro_leases_active", "Leases currently held by runners."
        ).set(self.leases.active())
        registry.gauge(
            "repro_lease_age_seconds_max",
            "Age of the oldest active lease (seconds since last beat).",
        ).set(self.leases.max_age())
        uptime = max(time.monotonic() - self._started, 1e-9)
        registry.gauge(
            "repro_rounds_per_second",
            "Fleet-wide tuning-round completion rate over engine uptime.",
        ).set(self._runner_rounds.total() / uptime)

    def _note_round(self, lease, progress: dict) -> None:
        """Ingest one heartbeat's round report into metrics + traces.

        Heartbeats re-send the latest round's progress until the next
        round completes, so the round index gates ingestion — each round
        counts once no matter how many beats carry it.
        """
        round_index = progress.get("round")
        if not isinstance(round_index, int):
            return
        # check-and-set under the lock; the metric/trace writes stay
        # outside it (they have their own locking)
        with self._rounds_lock:
            if self._noted_rounds.get(lease.lease_id) == round_index:
                return
            self._noted_rounds[lease.lease_id] = round_index
        self._runner_rounds.labels(runner=lease.runner_id).inc()
        stages = progress.get("stages")
        if isinstance(stages, dict):
            for stage, seconds in stages.items():
                if isinstance(seconds, (int, float)):
                    self._runner_stages.labels(
                        runner=lease.runner_id, stage=str(stage)
                    ).observe(float(seconds))
        self.traces.write(
            lease.job_id, {"job_id": lease.job_id, "runner": lease.runner_id, **progress}
        )
        self.broker.publish(
            lease.job_id,
            {
                "type": "round",
                "state": JobState.RUNNING.value,
                "runner": lease.runner_id,
                "round": round_index,
                "progress": progress,
            },
        )

    # ------------------------------------------------------------------
    # front end
    # ------------------------------------------------------------------
    def submit(self, network: str, **spec) -> str:
        """Queue one tuning job; returns its job id.

        ``spec`` takes :class:`~repro.service.jobs.TuneJob`'s spec
        fields and defaults: ``device="a100"``, ``method="pruner"``,
        ``rounds=8``, ``scale="smoke"``, ``batch=1``,
        ``top_k_tasks=None``, ``seed=None`` (derived from the spec),
        ``priority=0``, ``max_retries=1``.  Bad values are refused here
        — :class:`ServeError` 400 for types and ranges, the resolver's
        own :class:`~repro.errors.ReproError` for unknown scales,
        methods, devices and networks — not mid-run, where they would
        fail every runner attempt.  The job is in the ledger before
        this returns: a submitted job must survive a crash.
        """
        spec = _checked_spec({"network": network, **spec})
        # canonicalize aliases (b-tiny -> bert_tiny) so identical specs
        # derive identical seeds and ledger entries
        spec["network"] = resolve_network(spec["network"])
        job = TuneJob(**spec)
        api.resolve_scale(job.scale)
        api.resolve_method(job.method)
        get_device(job.device)
        if job.method in api.PRETRAINED_METHODS:
            # jobs carry no pretrained parameters, so these methods
            # would deterministically fail inside every runner attempt
            raise SearchError(
                f"method {job.method!r} needs pretrained model parameters, which "
                "tuning jobs cannot supply; use api.build_tuner directly"
            )
        job_id = self.queue.submit(job)
        self._append_ledger(job_id)
        self.broker.publish(
            job_id, {"type": "submitted", "state": JobState.PENDING.value}
        )
        return job_id

    def status(self, job_id: str | None = None) -> dict:
        """One job's state + per-round progress, or per-state job counts."""
        self.reap()
        if job_id is None:
            return self.queue.counts()
        return self._job_payload(self._job(job_id))

    def jobs(self) -> list[dict]:
        """Every known job (submission order), as :meth:`status` rows."""
        self.reap()
        return [self._job_payload(job) for job in self.queue.jobs()]

    def result(self, job_id: str) -> dict:
        """Result summary of a finished job (409 while there is none).

        The :func:`~repro.serve.protocol.result_to_wire` dict the
        runner delivered; cancelled jobs that completed at least one
        round keep their partial result, failed jobs have none.
        """
        job = self._job(job_id)
        with self._results_lock:
            result = self._results.get(job_id)
        if job.state not in TERMINAL_STATES or result is None:
            raise ServeError(
                409,
                f"job {job_id} is {job.state.value!r}, result not available",
                payload={"state": job.state.value},
            )
        return result

    def cancel(self, job_id: str) -> JobState:
        """Request cancellation; returns the job's state afterwards.

        Pending jobs cancel immediately; running jobs stop at their
        next round boundary (the flag rides the heartbeat reply) and
        keep the partial result they measured so far.
        """
        self._job(job_id)
        state = self.queue.cancel(job_id)
        self._append_ledger(job_id)
        self.broker.publish(
            job_id,
            {
                "type": (
                    "cancel-requested" if state is JobState.RUNNING else "cancelled"
                ),
                "state": state.value,
            },
        )
        return state

    def events(self, job_id: str, after: int = 0, timeout: float = 0.0) -> dict:
        """Long-poll one job's progress stream.

        ``after`` is the caller's cursor (last seen sequence number,
        0 for the start); ``timeout`` is how long to block waiting for
        something newer (clamped to :data:`MAX_EVENTS_TIMEOUT`, forced
        to 0 once the job is terminal — its history is complete).
        """
        self.reap()  # an expired lease becomes a visible event
        job = self._job(job_id)
        if after < 0:
            raise ServeError(400, f"'after' must be >= 0, got {after}")
        if timeout < 0:
            raise ServeError(400, f"'timeout' must be >= 0, got {timeout}")
        timeout = min(timeout, MAX_EVENTS_TIMEOUT)
        if job.state in TERMINAL_STATES:
            timeout = 0.0
        events = self.broker.wait_for(job_id, after=after, timeout=timeout)
        job = self._job(job_id)  # state may have advanced while blocked
        return {
            "job_id": job_id,
            "state": job.state.value,
            "terminal": job.state in TERMINAL_STATES,
            "events": events,
            "next": events[-1]["seq"] if events else after,
        }

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
                    if rows_to_records([r], {task.key: task.space})
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

    # ------------------------------------------------------------------
    # runner protocol (ServeClient's signatures)
    # ------------------------------------------------------------------
    def lease(
        self,
        runner_id: str,
        ttl: float | None = None,
        wait: float | None = 0.0,
        have: str | None = None,
    ) -> dict | None:
        """Claim the highest-priority pending job; None when there is none.

        The payload carries the job spec, the store's seed rows for its
        workload and the freshest compatible cost-model checkpoint: the
        stored file as one base64 string (None on a cold store).
        ``have`` names the checkpoint the runner holds (the digest
        :meth:`complete` returned): when it is the stored one, the
        payload carries ``{"ref", "trained_trials"}`` instead.

        ``wait`` makes this a long poll: with nothing to claim it blocks
        up to that many seconds (clamped to :data:`MAX_LEASE_WAIT`) and
        takes a job the moment one is submitted or requeued.
        It returns None when the wait ends empty or the queue closes.
        A lease that expires meanwhile is reaped by the end of the wait.
        """
        if ttl is not None:
            # validate before claiming: a grant() failure after claim()
            # would strand the job RUNNING with no lease to expire
            ttl = _seconds("lease ttl", ttl)
            if ttl <= 0:
                raise ServeError(400, f"lease ttl must be > 0, got {ttl}")
            if ttl > self.leases.max_ttl:
                raise ServeError(
                    400, f"lease ttl {ttl} exceeds server max {self.leases.max_ttl}"
                )
        wait = 0.0 if wait is None else _seconds("lease wait", wait)
        if wait < 0:
            raise ServeError(400, f"lease wait must be >= 0, got {wait}")
        if have is not None and not isinstance(have, str):
            raise ServeError(400, f"lease 'have' must be a digest string, got {have!r}")
        # real time, like the event broker: a frozen fake clock must not
        # turn the wait into a spin
        deadline = time.monotonic() + min(wait, MAX_LEASE_WAIT)
        while True:
            # read before the claim: a job pushed after it ends the wait
            seen = self.queue.pushes()
            self.reap()
            job = self.queue.claim(runner_id=runner_id)
            if job is not None:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self.queue.wait_for_push(seen, remaining):
                return None  # nothing to do; poll again later
        try:
            lease = self.leases.grant(job.job_id, runner_id, ttl=ttl)
        except ValueError:
            self.queue.release(job.job_id)  # never strand a claimed job
            raise
        self._append_ledger(job.job_id)  # the claim (running + runner id) survives a crash
        self.broker.publish(
            job.job_id,
            {"type": "leased", "state": JobState.RUNNING.value, "runner": runner_id},
        )
        key = self._store_key_for(job)
        return {
            "lease_id": lease.lease_id,
            "ttl": lease.ttl,
            "job": job.to_dict(),
            "seed_rows": self.store.load_rows(key) if key is not None else [],
            # the runner starts verify-stage-accurate at round 0
            "checkpoint": self._checkpoint_for(job, key, have),
        }

    def _checkpoint_for(
        self, job: TuneJob, key: StoreKey | None, have: str | None
    ) -> dict | str | None:
        """The checkpoint a lease for ``job`` should carry: the stored
        file in base64, or a reference when the runner already holds it."""
        if key is None:
            return None
        try:
            kind = api.model_kind(job.method)
        except ReproError:
            return None
        return self.models.load_wire(key, kind, have=have)

    def _held_lease(self, lease_id: str, runner_id: str, drop: bool = False):
        """Heartbeat/complete/fail preamble: validate the caller's hold."""
        self.reap()
        try:
            if drop:
                lease = self.leases.release(lease_id, runner_id)
                with self._rounds_lock:
                    self._noted_rounds.pop(lease_id, None)
                return lease
            return self.leases.heartbeat(lease_id, runner_id)
        except KeyError:
            raise ServeError(
                410, f"lease {lease_id} expired; its job was requeued"
            ) from None
        except PermissionError as exc:
            raise ServeError(409, str(exc)) from None

    def heartbeat(
        self, lease_id: str, runner_id: str, progress: dict | None = None
    ) -> dict:
        """Keep a lease alive; carries round progress in, the cancel flag out."""
        lease = self._held_lease(lease_id, runner_id)
        if isinstance(progress, dict):
            self.queue.update_progress(lease.job_id, progress)
            self._note_round(lease, progress)
        return {
            "job_id": lease.job_id,
            "ttl": lease.ttl,
            "cancel": self.queue.cancel_requested(lease.job_id),
        }

    def complete(
        self,
        lease_id: str,
        runner_id: str,
        job_id: str,
        result: dict,
        records: list[dict],
        blob: bytes | None = None,
    ) -> dict:
        """Deliver a finished job: result summary, fresh rows, checkpoint
        blob.

        The answer's ``checkpoint_digest`` is the SHA-256 of the bytes
        stored from this upload (None when none were), for the runner's
        next lease to name as ``have``.  Anything but bytes in ``blob``
        is no checkpoint.
        """
        if not isinstance(records, list):
            raise ServeError(400, "'records' must be a list of record rows")
        # Measured rows — and the model trained on them — are evidence
        # regardless of lease fate: ingest them first, so even a runner
        # whose lease expired mid-upload still contributes to the store
        # (the requeued attempt warm-starts from them).  The lease's
        # binding — live or recently retired — decides which job the
        # upload belongs to, and the caller must be the runner that
        # held it: the caller's job_id can never redirect a *checkpoint*
        # to a job this lease did not hold.  When the binding is gone
        # (engine restart, retirement aged out) record rows still land
        # under the claimed job — rows for the wrong key never
        # re-lower at load, so a misdirected row is inert — but the
        # checkpoint is dropped: it would load cleanly under any key
        # of the same model kind and poison future warm starts.
        ingested, digest = 0, None
        bound = self.leases.binding(lease_id)
        if bound is not None and bound[1] == runner_id:
            ingested = self._ingest_rows(bound[0], records)
            digest = self._ingest_checkpoint(bound[0], blob)
        elif bound is None:
            ingested = self._ingest_rows(job_id, records)
        lease = self._held_lease(lease_id, runner_id, drop=True)
        if isinstance(result, dict):
            self._save_result(lease.job_id, result)
        self.queue.mark_done(lease.job_id)
        self._append_ledger(lease.job_id)
        job = self.queue.get(lease.job_id)
        self.broker.publish(
            lease.job_id,
            {"type": "done", "state": job.state.value, "runner": runner_id},
        )
        return {
            "job_id": lease.job_id,
            "state": job.state.value,
            "records_ingested": ingested,
            "checkpoint_stored": digest is not None,
            "checkpoint_digest": digest,
        }

    def fail(self, lease_id: str, runner_id: str, error: str) -> dict:
        """Report a failed attempt; the job requeues while retries last."""
        lease = self._held_lease(lease_id, runner_id, drop=True)
        error = str(error or "runner reported failure")
        self.queue.mark_failed(lease.job_id, error)
        self._append_ledger(lease.job_id)
        job = self.queue.get(lease.job_id)
        # mark_failed may have requeued for a retry — publish the state
        # it actually landed in, so pollers see pending vs failed
        self.broker.publish(
            lease.job_id,
            {
                "type": "failed",
                "state": job.state.value,
                "runner": runner_id,
                "error": error,
            },
        )
        return {"job_id": lease.job_id, "state": job.state.value}

    def _ingest_target(self, job_id) -> tuple[TuneJob, StoreKey] | None:
        """The job and store key an upload for ``job_id`` lands under."""
        if not isinstance(job_id, str):
            return None
        try:
            job = self.queue.get(job_id)
        except KeyError:
            return None
        key = self._store_key_for(job)
        return None if key is None else (job, key)

    def _ingest_rows(self, job_id, records: list) -> int:
        """Append wire record rows to the store under the job's key."""
        target = self._ingest_target(job_id) if records else None
        if target is None:
            return 0
        return self.store.append_rows(target[1], records)

    def _ingest_checkpoint(self, job_id, blob) -> str | None:
        """Store a runner's returned checkpoint blob under the job's key;
        the stored bytes' digest, or None when nothing was stored.

        The ModelStore arbitrates staleness: a checkpoint trained on
        fewer trials than the stored one is dropped, so a slow runner
        finishing late cannot clobber a fresher model.  The claimed
        trial count is clamped to the evidence that actually exists for
        the key (persisted rows, or the currently stored checkpoint's
        rank) — an inflated count from a buggy or hostile runner must
        not freeze the slot against every future checkpoint.
        """
        if not isinstance(blob, bytes):
            return None
        target = self._ingest_target(job_id)
        if target is None:
            return None
        job, key = target
        try:
            kind = api.model_kind(job.method)
        except ReproError:
            return None
        cap = max(
            # fresh rows land before this; raw line count is a cheap
            # upper bound — no need to re-parse the store per completion
            self.store.approx_rows(key),
            self.models.trained_trials(key, kind),
        )
        return self.models.save_wire(key, kind, blob, max_trials=cap)
