"""The serving application: REST front end + runner protocol handlers.

:class:`ServeApp` puts a :class:`~repro.serve.engine.JobEngine` on the
wire and holds no job state of its own: each handler validates the
request, calls the engine, and picks the status code (an engine refusal
is a :class:`~repro.serve.protocol.ServeError`, which the HTTP layer
answers with the status it carries).  The server process itself never
tunes — a fleet of :mod:`repro.serve.runner` processes does the
measuring.

Front-end endpoints (see :mod:`repro.serve.client` for the SDK):

========  ==========================  =====================================
POST      ``/jobs``                   submit a tuning job
GET       ``/jobs``                   list all known jobs
GET       ``/jobs/{id}``              status + per-round progress
GET       ``/jobs/{id}/result``       result summary of a finished job
GET       ``/jobs/{id}/events``       long-poll stream of progress events
DELETE    ``/jobs/{id}``              cancel (cooperative for running jobs)
GET       ``/best``                   best persisted schedule of a workload
GET       ``/healthz``                liveness + queue/lease counters
POST      ``/lease``                  runner protocol: long-poll for a job
POST      ``/lease/{id}/heartbeat``   runner protocol: keep-alive + progress
POST      ``/lease/{id}/complete``    runner protocol: deliver results (framed)
POST      ``/lease/{id}/fail``        runner protocol: report an error
========  ==========================  =====================================

With ``auth_token`` set, every endpoint requires ``Authorization:
Bearer <token>``; with a rate limit set, each client address draws from
a token bucket — both are enforced below the routing layer in
:mod:`repro.serve.http`.
"""

from __future__ import annotations

from repro import obs
from repro.errors import ReproError
from repro.obs import PROM_CONTENT_TYPE
from repro.serve.engine import SPEC_FIELDS, JobEngine
from repro.serve.http import (
    THROTTLED_HELP,
    THROTTLED_METRIC,
    UNAUTHORIZED_HELP,
    UNAUTHORIZED_METRIC,
    HttpError,
    TextResponse,
    TokenBucketLimiter,
    route,
)
from repro.serve.protocol import PROTOCOL_VERSION, ServeError, wire_float
from repro.service.jobs import JobState

#: The fields a ``POST /lease`` body may carry.
LEASE_FIELDS = frozenset({"runner_id", "ttl", "wait", "have"})


class ServeApp:
    """HTTP face of a :class:`~repro.serve.engine.JobEngine`.

    Parameters
    ----------
    engine:
        The job engine to serve; the caller owns its lifecycle
        (``engine.shutdown()`` after the HTTP server stops serving and
        before ``server_close()``, which waits for blocked long polls).
    auth_token:
        Shared secret; when set, every endpoint requires
        ``Authorization: Bearer <token>`` (enforced in the HTTP layer).
    rate_limit / rate_burst:
        Per-client token bucket (requests/sec sustained, burst cap) on
        the engine's clock; None disables limiting.
    """

    def __init__(
        self,
        engine: JobEngine,
        verbose: bool = False,
        auth_token: str | None = None,
        rate_limit: float | None = None,
        rate_burst: float = 10.0,
    ) -> None:
        self.engine = engine
        self.verbose = verbose
        self.auth_token = auth_token or None
        self.limiter = (
            TokenBucketLimiter(rate_limit, rate_burst, clock=engine.clock)
            if rate_limit is not None
            else None
        )
        # The HTTP layer records request timings and gate rejections
        # into the registry it finds under ``metrics``; pre-registering
        # the (unlabeled) rejection families makes a fresh server
        # render them at 0 instead of omitting them until the first
        # rejection.
        self.metrics = engine.metrics
        self.metrics.counter(UNAUTHORIZED_METRIC, UNAUTHORIZED_HELP)
        self.metrics.counter(THROTTLED_METRIC, THROTTLED_HELP)
        self.routes = [
            route("GET", r"/healthz", self.handle_healthz),
            route("GET", r"/metrics", self.handle_metrics),
            route("POST", r"/jobs/?", self.handle_submit),
            route("GET", r"/jobs/?", self.handle_list_jobs),
            route("GET", r"/jobs/(?P<job_id>[^/]+)/result", self.handle_result),
            route("GET", r"/jobs/(?P<job_id>[^/]+)/events", self.handle_events),
            route("GET", r"/jobs/(?P<job_id>[^/]+)", self.handle_status),
            route("DELETE", r"/jobs/(?P<job_id>[^/]+)", self.handle_cancel),
            route("GET", r"/best", self.handle_best),
            route("POST", r"/lease", self.handle_lease),
            route(
                "POST", r"/lease/(?P<lease_id>[^/]+)/heartbeat", self.handle_heartbeat
            ),
            route(
                "POST", r"/lease/(?P<lease_id>[^/]+)/complete", self.handle_complete
            ),
            route("POST", r"/lease/(?P<lease_id>[^/]+)/fail", self.handle_fail),
        ]

    @staticmethod
    def _require_runner_id(body: dict) -> str:
        """The request's runner identity, validated as a non-empty string.

        Every runner-protocol handler goes through here: a missing
        runner_id must be a 400, not a default ``""`` that flows into
        the lease-ownership check and surfaces as a baffling 409.
        """
        runner_id = body.get("runner_id")
        if not isinstance(runner_id, str) or not runner_id:
            raise HttpError(400, "request needs a non-empty 'runner_id' string")
        return runner_id

    # ------------------------------------------------------------------
    # front-end handlers
    # ------------------------------------------------------------------
    def handle_healthz(self, match, query, body):
        return 200, {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "jobs": self.engine.status(),
            "active_leases": self.engine.leases.active(),
        }

    def handle_metrics(self, match, query, body):
        """Prometheus text exposition: engine state + process-wide repro
        metrics (cache hit rates and, for in-process tuning, stage
        timings).  Reaps first so an idle server's scrape still shows
        expired leases as requeued jobs, not phantom active leases.
        """
        self.engine.reap()
        text = self.metrics.render() + obs.METRICS.render()
        return 200, TextResponse(text, PROM_CONTENT_TYPE)

    def handle_submit(self, match, query, body):
        unknown = set(body) - SPEC_FIELDS
        if unknown:
            raise HttpError(400, f"unknown job fields: {sorted(unknown)}")
        if "network" not in body:
            raise HttpError(400, "submit needs a 'network' string")
        try:
            job_id = self.engine.submit(**body)
        except ServeError:
            raise
        except ReproError as exc:  # unknown scale / method / device / network
            raise HttpError(400, str(exc)) from None
        return 201, {"job_id": job_id, "state": JobState.PENDING.value}

    def handle_list_jobs(self, match, query, body):
        return 200, {"jobs": self.engine.jobs()}

    def handle_status(self, match, query, body):
        return 200, self.engine.status(match.group("job_id"))

    def handle_result(self, match, query, body):
        job_id = match.group("job_id")
        result = self.engine.result(job_id)
        state = self.engine.queue.get(job_id).state.value
        return 200, {"job_id": job_id, "state": state, "result": result}

    def handle_cancel(self, match, query, body):
        job_id = match.group("job_id")
        state = self.engine.cancel(job_id)
        return 200, {
            "job_id": job_id,
            "state": state.value,
            # running jobs stop at their next round boundary
            "cancel_requested": state is JobState.RUNNING,
        }

    def handle_best(self, match, query, body):
        workload = query.get("workload")
        if not workload:
            raise HttpError(400, "GET /best needs a 'workload' query parameter")
        try:
            summary = self.engine.best_schedule(
                workload,
                device=query.get("device", "a100"),
                method=query.get("method", "pruner"),
                batch=int(query.get("batch", 1)),
                top_k_tasks=(
                    int(query["top_k_tasks"]) if "top_k_tasks" in query else None
                ),
            )
        except ReproError as exc:
            raise HttpError(400, str(exc)) from None
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad query: {exc}") from None
        summary["tuned_latency"] = wire_float(summary["tuned_latency"])
        return 200, summary

    def handle_events(self, match, query, body):
        """Long-poll one job's progress stream (``after`` cursor,
        ``timeout`` seconds; see :meth:`JobEngine.events`)."""
        try:
            after = int(query.get("after", 0))
            timeout = float(query.get("timeout", 0.0))
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad events query: {exc}") from None
        return 200, self.engine.events(match.group("job_id"), after, timeout)

    # ------------------------------------------------------------------
    # runner-protocol handlers
    # ------------------------------------------------------------------
    def handle_lease(self, match, query, body):
        # a field this server does not read (a v2 runner's ``tags``)
        # is refused, not ignored: its sender expects it to matter
        unknown = set(body) - LEASE_FIELDS
        if unknown:
            raise HttpError(400, f"unknown lease fields: {sorted(unknown)}")
        runner_id = self._require_runner_id(body)
        # a long poll: the engine holds the request up to ``wait`` seconds
        leased = self.engine.lease(
            runner_id,
            ttl=body.get("ttl"),
            wait=body.get("wait"),
            have=body.get("have"),
        )
        if leased is None:
            return 204, None  # nothing came up during the wait
        return 200, leased

    def handle_heartbeat(self, match, query, body):
        runner_id = self._require_runner_id(body)
        return 200, self.engine.heartbeat(
            match.group("lease_id"), runner_id, progress=body.get("progress")
        )

    def handle_complete(self, match, query, body):
        """A framed body's bytes are the checkpoint blob; a JSON-only body
        (an older runner's, whose ``checkpoint`` field is an envelope)
        delivers rows and result but stores no checkpoint."""
        runner_id = self._require_runner_id(body)
        return 200, self.engine.complete(
            match.group("lease_id"),
            runner_id,
            body.get("job_id"),
            body.get("result"),
            body.get("records") or [],
            blob=body.get("blob"),
        )

    def handle_fail(self, match, query, body):
        runner_id = self._require_runner_id(body)
        return 200, self.engine.fail(
            match.group("lease_id"), runner_id, body.get("error")
        )
