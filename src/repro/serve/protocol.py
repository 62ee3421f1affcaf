"""Remote measurement-worker protocol: leases, registration, events.

The server hands jobs to runner processes under *leases* — time-bound
claims (MITuna-style): a runner must heartbeat before the lease's
deadline or the server requeues the job for someone else, so a runner
that crashes, hangs, or loses its network never strands work.  The
full exchange:

1. ``POST /runners/register`` — the runner advertises its identity and
   capability tags (device/arch/labels); tags on the *matching keys*
   (:attr:`RunnerRegistry.MATCH_KEYS`) constrain which jobs the server
   will ever lease to it.  Registration also rides every lease poll,
   so a restarted server re-learns its fleet within one poll interval.
2. ``POST /lease`` — the runner asks for work; the server pops the
   highest-priority *tag-compatible* job, grants a lease, and ships
   the job spec plus warm-start seed rows from the record store and
   the freshest compatible cost-model checkpoint from the model store.
3. ``POST /lease/{id}/heartbeat`` — keep-alive, carrying the latest
   per-round progress *to* the server and the job's cancellation flag
   *back* (cancellation piggybacks on the beat — no extra channel).
   Fresh rounds fan out to ``GET /jobs/{id}/events`` long-pollers
   through the :class:`EventBroker`.
4. ``POST /lease/{id}/complete`` / ``.../fail`` — terminal: fresh
   record rows, a result summary, and the runner's trained model
   checkpoint (stored server-side under staleness arbitration), or
   the error.

This module owns the lease bookkeeping (:class:`LeaseTable`), the
fleet membership (:class:`RunnerRegistry`), the progress stream fanout
(:class:`EventBroker`), the protocol's error type (:class:`ServeError`)
and the JSON wire forms of results (:func:`result_to_wire` /
:func:`fresh_rows`); :mod:`repro.serve.engine` drives them as one state
machine and the HTTP surface lives in :mod:`repro.serve.app`.
"""

from __future__ import annotations

import math
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.errors import CostModelError, ReproError
from repro.search.tuner import TuneResult
from repro.service.models import state_from_wire, state_to_wire

#: Version of the runner wire protocol, echoed by ``GET /healthz`` —
#: bump when a message shape changes incompatibly.
PROTOCOL_VERSION = 1

#: Default seconds a runner may go silent before its lease expires.
DEFAULT_LEASE_TTL = 30.0


class ServeError(ReproError):
    """A request the job engine refused, carrying its HTTP status.

    The one error type of the job protocol: :class:`~repro.serve.engine.
    JobEngine` raises it in process, the HTTP layer answers it as
    ``status`` + ``{"error": message, **payload}``, and
    :class:`~repro.serve.client.ServeClient` raises it again from that
    response — so a caller handles a refusal the same way with or
    without a socket in between.
    """

    def __init__(self, status: int, message: str, payload: dict | None = None):
        super().__init__(f"[HTTP {status}] {message}")
        self.status = status
        self.message = message
        self.payload = payload or {}


def wire_float(value: float) -> float | str:
    """JSON-safe float: non-finite values travel as strings."""
    return value if math.isfinite(value) else repr(value)


def unwire_float(value: float | str | None) -> float:
    """Inverse of :func:`wire_float` (None reads as inf: no data yet)."""
    if value is None:
        return math.inf
    return float(value)


@dataclass
class Lease:
    """One granted claim: a runner's time-bound hold on a job."""

    lease_id: str
    job_id: str
    runner_id: str
    ttl: float
    deadline: float  # clock() timestamp after which the lease is dead


class LeaseTable:
    """Thread-safe lease bookkeeping with expiry.

    ``clock`` is injectable (defaults to ``time.monotonic``) so tests
    can expire leases without sleeping.  The table never touches the
    job queue itself — callers pair :meth:`expired` with
    :meth:`~repro.service.jobs.JobQueue.release`.
    """

    #: retired (lease -> job/runner) bindings kept for late uploads.
    RETIRED_CAP = 256

    def __init__(
        self,
        ttl: float = DEFAULT_LEASE_TTL,
        clock=time.monotonic,
        max_ttl: float | None = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"lease ttl must be > 0, got {ttl}")
        self.ttl = ttl
        # the longest TTL a runner may request: a buggy or hostile
        # ttl=1e12 must never make a claimed job un-reapable
        self.max_ttl = 10 * ttl if max_ttl is None else float(max_ttl)
        if self.max_ttl < ttl:
            raise ValueError(
                f"max lease ttl {self.max_ttl} must be >= default ttl {ttl}"
            )
        self._clock = clock
        self._lock = threading.Lock()
        self._leases: dict[str, Lease] = {}
        # Bindings of recently ended leases (released, expired, drained):
        # a complete/fail landing after expiry must still be attributable
        # to the job the lease actually held — never to a job id the
        # caller invents.  Bounded FIFO; misses just drop the upload.
        self._retired: OrderedDict[str, tuple[str, str]] = OrderedDict()

    def _retire(self, lease: Lease) -> None:
        """Remember an ended lease's binding (call under the lock)."""
        self._retired[lease.lease_id] = (lease.job_id, lease.runner_id)
        while len(self._retired) > self.RETIRED_CAP:
            self._retired.popitem(last=False)

    # ------------------------------------------------------------------
    def grant(self, job_id: str, runner_id: str, ttl: float | None = None) -> Lease:
        """Issue a fresh lease on a just-claimed job.

        Requested TTLs clamp to :attr:`max_ttl` — the serving layer
        rejects oversized requests with a 400 before getting here, so
        the clamp is a second line of defense for direct callers.
        """
        ttl = self.ttl if ttl is None else min(float(ttl), self.max_ttl)
        if ttl <= 0:
            raise ValueError(f"lease ttl must be > 0, got {ttl}")
        lease = Lease(
            lease_id=uuid.uuid4().hex,
            job_id=job_id,
            runner_id=runner_id,
            ttl=ttl,
            deadline=self._clock() + ttl,
        )
        with self._lock:
            self._leases[lease.lease_id] = lease
        return lease

    def _live(self, lease_id: str) -> Lease:
        """The lease, if it is still within its deadline (call under lock).

        A lease past its TTL is dead even before the reaper has popped
        it: heartbeat/release must not resurrect it — the server may
        already have requeued its job for another runner.  The entry is
        left in the table so :meth:`expired` still hands it to the
        requeue path; it is just no longer usable.
        """
        lease = self._leases[lease_id]
        if lease.deadline < self._clock():
            raise KeyError(lease_id)
        return lease

    def heartbeat(self, lease_id: str, runner_id: str) -> Lease:
        """Extend a lease's deadline; raises if it is gone or not yours.

        ``KeyError`` — unknown or already-expired lease (the job was,
        or is about to be, requeued); ``PermissionError`` — a different
        runner holds it.
        """
        with self._lock:
            lease = self._live(lease_id)
            if lease.runner_id != runner_id:
                raise PermissionError(
                    f"lease {lease_id} belongs to {lease.runner_id!r}"
                )
            lease.deadline = self._clock() + lease.ttl
            return lease

    def release(self, lease_id: str, runner_id: str | None = None) -> Lease:
        """Drop a lease (complete/fail path); same errors as heartbeat."""
        with self._lock:
            lease = self._live(lease_id)
            if runner_id is not None and lease.runner_id != runner_id:
                raise PermissionError(
                    f"lease {lease_id} belongs to {lease.runner_id!r}"
                )
            del self._leases[lease_id]
            self._retire(lease)
            return lease

    def binding(self, lease_id: str) -> tuple[str, str] | None:
        """The ``(job_id, runner_id)`` a lease is (or was) bound to.

        The authoritative binding for completion-time ingest: live
        leases answer directly (expired or not), recently ended ones
        from the retired map — a runner's body-supplied ``job_id`` must
        never be able to redirect its records or checkpoint to a job
        the lease did not hold.  None for ids this table never issued
        (or retired past the cap): such uploads are unattributable.
        """
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is not None:
                return lease.job_id, lease.runner_id
            return self._retired.get(lease_id)

    def expired(self) -> list[Lease]:
        """Pop and return every lease past its deadline (reaper step)."""
        now = self._clock()
        with self._lock:
            dead = [
                lease for lease in self._leases.values() if lease.deadline < now
            ]
            for lease in dead:
                del self._leases[lease.lease_id]
                self._retire(lease)
            return dead

    def drain(self) -> list[Lease]:
        """Pop every active lease (server shutdown: requeue them all)."""
        with self._lock:
            leases = list(self._leases.values())
            self._leases.clear()
            for lease in leases:
                self._retire(lease)
            return leases

    def active(self) -> int:
        with self._lock:
            return len(self._leases)

    def max_age(self) -> float:
        """Age in seconds of the oldest active lease (0.0 when none).

        Age counts from the last grant/heartbeat (``deadline - ttl``),
        so a fleet that beats on time reports small ages and a wedged
        runner shows up as a monotonically growing one — the signal the
        ``repro_lease_age_seconds_max`` gauge exists to expose.
        """
        now = self._clock()
        with self._lock:
            if not self._leases:
                return 0.0
            return max(
                max(0.0, now - (lease.deadline - lease.ttl))
                for lease in self._leases.values()
            )


# ----------------------------------------------------------------------
# runner registration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunnerInfo:
    """One registered runner: identity, capability tags, liveness."""

    runner_id: str
    tags: dict  # normalized: {key: tuple of accepted values}
    registered_at: float  # clock() timestamp of first registration
    last_seen: float  # clock() timestamp of the latest register/poll

    def to_wire(self, now: float) -> dict:
        return {
            "runner_id": self.runner_id,
            "tags": {key: list(values) for key, values in self.tags.items()},
            "registered_s": round(max(0.0, now - self.registered_at), 3),
            "idle_s": round(max(0.0, now - self.last_seen), 3),
        }


class RunnerRegistry:
    """Thread-safe registry of runners and their capability tags.

    Tags are free-form ``{key: value-or-values}`` strings; the keys in
    :attr:`MATCH_KEYS` (the ones that name job-spec fields) additionally
    *constrain leasing*: a runner advertising ``{"device": "a100"}`` is
    never handed a job whose spec says ``t4``.  Unregistered runners
    carry no constraints — the anonymous protocol of earlier versions
    keeps working — and registration is idempotent, so runners refresh
    it on every lease poll and survive server restarts.
    """

    #: Tag keys that must match the job spec for a lease to be granted.
    MATCH_KEYS = ("device", "method", "network")
    #: Hostile-input bounds: a registration request is operator input,
    #: not tuning data, so anything past these is a 400, not a truncate.
    MAX_RUNNERS = 4096
    MAX_TAG_KEYS = 32
    MAX_TAG_VALUES = 16
    MAX_TAG_LENGTH = 128

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._runners: dict[str, RunnerInfo] = {}

    @classmethod
    def normalize_tags(cls, tags: object) -> dict:
        """Validated ``{key: tuple of values}`` form; ValueError on junk."""
        if tags is None:
            return {}
        if not isinstance(tags, dict):
            raise ValueError(f"tags must be an object, got {type(tags).__name__}")
        if len(tags) > cls.MAX_TAG_KEYS:
            raise ValueError(f"too many tag keys ({len(tags)} > {cls.MAX_TAG_KEYS})")
        normalized: dict[str, tuple[str, ...]] = {}
        for key, raw in tags.items():
            if not isinstance(key, str) or not key:
                raise ValueError(f"tag keys must be non-empty strings, got {key!r}")
            values = raw if isinstance(raw, (list, tuple)) else [raw]
            if not values or len(values) > cls.MAX_TAG_VALUES:
                raise ValueError(
                    f"tag {key!r} needs 1..{cls.MAX_TAG_VALUES} values"
                )
            for value in values:
                if not isinstance(value, str) or not value:
                    raise ValueError(
                        f"tag {key!r} values must be non-empty strings,"
                        f" got {value!r}"
                    )
                if len(value) > cls.MAX_TAG_LENGTH or len(key) > cls.MAX_TAG_LENGTH:
                    raise ValueError(
                        f"tag {key!r} exceeds {cls.MAX_TAG_LENGTH} chars"
                    )
            normalized[key] = tuple(str(v) for v in values)
        return normalized

    def register(self, runner_id: str, tags: object) -> RunnerInfo:
        """Add or refresh a runner; idempotent.  ValueError on bad input."""
        if not isinstance(runner_id, str) or not runner_id:
            raise ValueError("registration needs a non-empty runner_id string")
        normalized = self.normalize_tags(tags)
        now = self._clock()
        with self._lock:
            existing = self._runners.get(runner_id)
            if existing is None and len(self._runners) >= self.MAX_RUNNERS:
                raise ValueError(
                    f"runner registry is full ({self.MAX_RUNNERS} runners)"
                )
            registered_at = now if existing is None else existing.registered_at
            info = RunnerInfo(
                runner_id=runner_id,
                tags=normalized,
                registered_at=registered_at,
                last_seen=now,
            )
            self._runners[runner_id] = info
            return info

    def touch(self, runner_id: str) -> None:
        """Refresh a registered runner's liveness (no-op for anonymous)."""
        now = self._clock()
        with self._lock:
            info = self._runners.get(runner_id)
            if info is not None:
                self._runners[runner_id] = replace(info, last_seen=now)

    def get(self, runner_id: str) -> RunnerInfo | None:
        with self._lock:
            return self._runners.get(runner_id)

    def predicate_for(self, runner_id: str):
        """The job-matching predicate a runner's tags imply, or None.

        None means "no constraints" (anonymous, or registered without
        matching keys).  The returned closure captures an immutable
        snapshot of the constraints and acquires no locks, so
        :meth:`~repro.service.jobs.JobQueue.claim` can call it while
        holding the queue lock.
        """
        info = self.get(runner_id)
        if info is None:
            return None
        constraints = {
            key: values
            for key, values in info.tags.items()
            if key in self.MATCH_KEYS
        }
        if not constraints:
            return None

        def matches(job) -> bool:
            return all(
                str(getattr(job, key, "")) in accepted
                for key, accepted in constraints.items()
            )

        return matches

    def count(self) -> int:
        with self._lock:
            return len(self._runners)

    def wire_snapshot(self) -> list[dict]:
        """Every registered runner in wire form (``GET /runners``)."""
        now = self._clock()
        with self._lock:
            infos = [self._runners[key] for key in sorted(self._runners)]
        return [info.to_wire(now) for info in infos]


# ----------------------------------------------------------------------
# job event streams
# ----------------------------------------------------------------------
class EventBroker:
    """Per-job progress streams behind one condition variable.

    :meth:`publish` appends a sequence-stamped event to a job's bounded
    history and wakes every waiter; :meth:`wait_for` is the long-poll
    primitive — it returns the events newer than the caller's cursor,
    blocking up to ``timeout`` seconds for the first one to arrive.
    Heartbeat ingestion publishes round events, the job lifecycle
    handlers publish state transitions, so one ``GET /jobs/{id}/events``
    poll loop observes a job end to end without busy-polling status.

    Histories are bounded per job (:attr:`TOPIC_CAP`, oldest dropped):
    a client that falls far behind misses the oldest events rather than
    growing the server; the sequence numbers make the gap visible.
    """

    TOPIC_CAP = 512

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._events: dict[str, list[dict]] = {}
        self._next_seq: dict[str, int] = {}
        self._closed = False

    def publish(self, topic: str, event: dict) -> dict:
        """Stamp ``event`` with the topic's next sequence and fan out."""
        with self._cond:
            seq = self._next_seq.get(topic, 0) + 1
            self._next_seq[topic] = seq
            stamped = dict(event)
            stamped["seq"] = seq
            rows = self._events.get(topic)
            if rows is None:
                rows = self._events[topic] = []
            rows.append(stamped)
            if len(rows) > self.TOPIC_CAP:
                self._events[topic] = rows[-self.TOPIC_CAP :]
            self._cond.notify_all()
            return stamped

    def wait_for(self, topic: str, after: int, timeout: float) -> list[dict]:
        """Events with ``seq > after``, long-polling up to ``timeout`` s.

        Returns immediately when newer events already exist (or the
        broker was closed for shutdown); otherwise blocks until a
        publish wakes it or the deadline passes, then returns whatever
        arrived (possibly nothing — callers poll again with the same
        cursor).
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._cond:
            while True:
                rows = self._events.get(topic, ())
                fresh = [event for event in rows if event["seq"] > after]
                if fresh or self._closed:
                    return fresh
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._cond.wait(remaining)

    def latest(self, topic: str) -> int:
        """The topic's newest sequence number (0 when nothing published)."""
        with self._cond:
            return self._next_seq.get(topic, 0)

    def close(self) -> None:
        """Wake every waiter and make future waits return immediately."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


# ----------------------------------------------------------------------
# wire forms
# ----------------------------------------------------------------------
def result_to_wire(result: TuneResult) -> dict:
    """JSON-safe summary of a :class:`TuneResult` (what clients poll).

    The record log itself is *not* here — fresh rows travel separately
    (:func:`fresh_rows`) and land in the server's record store; the
    summary is what ``GET /jobs/{id}/result`` serves forever after.
    """
    return {
        "final_latency": wire_float(result.final_latency),
        "fixed_latency": result.fixed_latency,
        "best": {key: wire_float(value) for key, value in result.best.items()},
        "weights": dict(result.weights),
        "total_trials": result.total_trials,
        "fresh_trials": result.fresh_trials,
        "seeded_trials": result.seeded_trials,
        "stopped_early": result.stopped_early,
        "warm_model": result.warm_model,
        "rounds_completed": len(result.curve),
        "curve": [
            {
                "sim_time": point.sim_time,
                "trials": point.trials,
                "latency": wire_float(point.latency),
            }
            for point in result.curve
        ],
    }


def fresh_rows(result: TuneResult) -> list[dict]:
    """Serialized rows for the trials this run actually measured.

    Seeded records sit at the front of the log and already live in the
    server's store — shipping them back would only make the server
    re-dedup them.
    """
    return [
        record.to_dict()
        for record in result.records.records[result.seeded_trials :]
    ]


def checkpoint_to_wire(state: dict | None, trained_trials: int = 0) -> dict | None:
    """Checkpoint envelope for a ``CostModel.save_state`` dict (or None).

    The same JSON-safe form the :class:`~repro.service.models.ModelStore`
    persists: the server ships it on the lease and stores what the
    runner returns — no shared filesystem needed.
    """
    if state is None:
        return None
    return state_to_wire(state, trained_trials=trained_trials)


def checkpoint_from_wire(data: object) -> dict | None:
    """Tolerant decode of a lease payload's checkpoint field.

    None for absent, malformed, or incompatible envelopes — a runner
    treats all of those as a cold start, never an error.
    """
    if not isinstance(data, dict):
        return None
    try:
        return state_from_wire(data)
    except CostModelError:
        return None
