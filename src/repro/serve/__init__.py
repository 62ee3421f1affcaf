"""The job engine, its HTTP face, and the runners that tune for it.

One :class:`~repro.serve.engine.JobEngine` owns the source of truth —
the job queue, leases, the persistent record and model stores, a
crash-safe job ledger — and :class:`~repro.serve.runner.TuningRunner`s
do the actual tuning, leasing jobs from it.  In one process the runners
are threads that call the engine directly (``python -m repro.serve
tune``); deployed, one *server* process puts the engine behind plain
HTTP and any number of *runner* processes on other machines lease over
the socket (stdlib only, no third-party dependencies on either side).
Same engine, same runner, same protocol either way.

Topology::

    client SDK / curl                    runner fleet
          |                                   |
          v                                   v
    +----------------- server process ------------------+
    |  REST front end        worker protocol            |
    |  POST /jobs            POST /runners/register     |
    |  GET  /jobs/{id}       POST /lease                |
    |  GET  .../result       POST /lease/{id}/heartbeat |
    |  GET  .../events       POST /lease/{id}/complete  |
    |  DELETE /jobs/{id}     POST /lease/{id}/fail      |
    |  GET  /best, /healthz, /runners, /metrics         |
    |  JobEngine: queue, leases, stores, ledger, events |
    +---------------------------------------------------+

    (optional on every edge: Authorization: Bearer <token>,
     per-client token-bucket rate limits)

Design notes
------------
* **Leases, not assignments** — a runner holds a job only while it
  heartbeats (:mod:`repro.serve.protocol`).  Kill a runner mid-job and
  the lease expires, the server requeues, another runner finishes it.
* **Cancellation piggybacks on heartbeats** — ``DELETE /jobs/{id}``
  flips a flag the runner sees on its next per-round beat; the tuning
  loop stops at the round boundary (cooperative, within one round).
* **Warm starts travel with the lease** — the server ships the store's
  rows for the job's workload; the runner re-lowers them locally and
  skips re-measuring known configs; fresh rows come back with the
  result.
* **Restart-safe** — submits, claims and finishes all flush the
  ledger; a restarted server requeues what was in flight and still
  serves past results.  Runner registrations ride every lease poll,
  so a restarted server re-learns its fleet's tags within one poll.
* **Tag-aware leasing** — a runner registered with capability tags
  (``device``/``method``/``network``) is only leased matching jobs;
  anonymous runners stay unconstrained (:class:`RunnerRegistry`).
* **Progress streams, not busy polls** — ``GET /jobs/{id}/events``
  long-polls a per-job event stream (:class:`EventBroker`) fed by
  heartbeat ingestion and every lifecycle transition;
  :meth:`ServeClient.events` iterates it end to end.

Modules: :mod:`~repro.serve.engine` (the job state machine),
:mod:`~repro.serve.protocol` (leases, events, error type, wire forms),
:mod:`~repro.serve.runner` (the tuning side + in-process ``drain``),
:mod:`~repro.serve.http` (stdlib JSON routing),
:mod:`~repro.serve.app` (endpoint handlers), :mod:`~repro.serve.client`
(typed SDK), :mod:`~repro.serve.cli` (``python -m repro.serve
server|runner|tune|status|export``).
"""

from repro.serve.app import ServeApp
from repro.serve.client import JobStatus, ServeClient
from repro.serve.engine import JobEngine
from repro.serve.http import TokenBucketLimiter, make_server
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    EventBroker,
    Lease,
    LeaseTable,
    RunnerInfo,
    RunnerRegistry,
    ServeError,
)
from repro.serve.runner import TuningRunner, drain

__all__ = [
    "JobEngine",
    "drain",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "JobStatus",
    "make_server",
    "Lease",
    "LeaseTable",
    "EventBroker",
    "RunnerInfo",
    "RunnerRegistry",
    "TokenBucketLimiter",
    "PROTOCOL_VERSION",
    "TuningRunner",
]
