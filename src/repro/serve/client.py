"""Typed Python SDK for the tuning server (stdlib ``http.client`` only).

    from repro.serve.client import ServeClient

    client = ServeClient("http://127.0.0.1:8537", auth_token="s3cret")
    job_id = client.submit("bert_tiny", device="a100", rounds=8)
    for event in client.events(job_id):            # long-poll stream
        print(event["type"], event.get("round"))
    status = client.wait(job_id, timeout=120)      # JobStatus dataclass
    summary = client.result(job_id)                # result summary dict
    best = client.best("bert_tiny", device="a100")

The same class is the runner side of the worker protocol
(:meth:`lease` / :meth:`heartbeat` /
:meth:`complete` / :meth:`fail`) — one wire client, two audiences.
``auth_token`` (when the server requires one) rides every request as
``Authorization: Bearer``.  Server-reported errors raise
:class:`ServeError` carrying the HTTP status; transport failures raise
``OSError``.

Each calling thread keeps one HTTP/1.1 connection to the server and
sends all its requests over it.  A request is sent at most once: before
reusing a connection the client checks, without waiting, whether the
server has closed it, and if so connects afresh *before* writing.  Any
failure once the request is written raises ``OSError`` and is never
retried — the server may already have acted on it.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
import urllib.parse
from dataclasses import dataclass

from repro.serve.protocol import FRAMED_CONTENT_TYPE, ServeError
from repro.service.jobs import TERMINAL_STATES, JobState


#: Seconds a connection may sit idle and still be reused.  A firewall or
#: NAT that forgets an idle connection does so silently, and a request
#: written into it fails after the write (a runner's ``complete`` after
#: a long job); a fresh connection costs well under a millisecond.
MAX_IDLE_S = 30.0


class _Connection(http.client.HTTPConnection):
    """A kept-alive connection that closes its socket when dropped — with
    the thread that owned it, or with its client."""

    idle_since = 0.0  # time.monotonic() when its last response was read

    def __del__(self) -> None:
        self.close()


def _dropped(sock) -> bool:
    """True when an idle kept-alive socket cannot carry a request.

    An idle connection has nothing to read, so a readable socket means
    the server closed (or reset) it, or sent bytes nobody asked for.
    """
    try:
        readable, _, _ = select.select([sock], [], [], 0.0)
    except (OSError, ValueError):  # closed, or a descriptor select cannot watch
        return True
    return bool(readable)


@dataclass(frozen=True)
class JobStatus:
    """Typed view of ``GET /jobs/{id}``."""

    job_id: str
    state: JobState
    network: str = ""
    device: str = ""
    method: str = ""
    attempts: int = 0
    error: str | None = None
    cancel_requested: bool = False
    runner: str | None = None
    progress: dict | None = None

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    @staticmethod
    def from_wire(data: dict) -> "JobStatus":
        return JobStatus(
            job_id=data["job_id"],
            state=JobState(data["state"]),
            network=data.get("network", ""),
            device=data.get("device", ""),
            method=data.get("method", ""),
            attempts=int(data.get("attempts", 0)),
            error=data.get("error"),
            cancel_requested=bool(data.get("cancel_requested", False)),
            runner=data.get("runner"),
            progress=data.get("progress"),
        )


class ServeClient:
    """HTTP client for :mod:`repro.serve.app`'s endpoints."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        auth_token: str | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.auth_token = auth_token or None
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"ServeClient needs an http://host[:port] URL, got {base_url!r}"
            )
        self._address = (parts.hostname, parts.port or 80)
        self._prefix = parts.path
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _connection(self, timeout: float) -> http.client.HTTPConnection:
        """This thread's connection, fit to write one request on."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = _Connection(*self._address, timeout=timeout)
        elif conn.sock is not None and (
            time.monotonic() - conn.idle_since > MAX_IDLE_S or _dropped(conn.sock)
        ):
            conn.close()  # reconnect now, before writing, never after
        conn.timeout = timeout  # the next connect's
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        return conn

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        query: dict | None = None,
        timeout: float | None = None,
        blob: bytes | None = None,
    ) -> tuple[int, dict | None]:
        """One request; ``blob`` frames raw bytes after the JSON ``body``."""
        target = self._prefix + path
        if query:
            pairs = {k: str(v) for k, v in query.items() if v is not None}
            target += "?" + urllib.parse.urlencode(pairs)
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data else {}
        if blob is not None:
            data = b"".join([data, b"\n", blob])
            headers = {"Content-Type": FRAMED_CONTENT_TYPE}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        conn = self._connection(self.timeout if timeout is None else timeout)
        try:
            conn.request(method, target, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            conn.idle_since = time.monotonic()
        except http.client.HTTPException as exc:
            conn.close()  # a half-used connection is never reused
            raise ConnectionError(f"bad HTTP response: {exc!r}") from None
        except BaseException:
            conn.close()
            raise
        if response.status >= 400:
            payload = self._parse(raw)
            message = (
                payload.get("error", response.reason)
                if isinstance(payload, dict)
                else str(response.reason)
            )
            raise ServeError(
                response.status, message, payload if isinstance(payload, dict) else None
            )
        return response.status, self._parse(raw)

    @staticmethod
    def _parse(raw: bytes) -> dict | None:
        if not raw:
            return None
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None

    # ------------------------------------------------------------------
    # front end
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        _, payload = self._request("GET", "/healthz")
        return payload or {}

    def submit(self, network: str, **spec) -> str:
        """Queue one tuning job; returns its job id.

        ``spec`` takes the same fields as
        :meth:`repro.serve.engine.JobEngine.submit` (device, method,
        rounds, scale, batch, top_k_tasks, seed, priority,
        max_retries).
        """
        _, payload = self._request(
            "POST", "/jobs", body={"network": network, **spec}
        )
        return payload["job_id"]

    def status(self, job_id: str) -> JobStatus:
        _, payload = self._request("GET", f"/jobs/{job_id}")
        return JobStatus.from_wire(payload)

    def jobs(self) -> list[JobStatus]:
        _, payload = self._request("GET", "/jobs")
        return [JobStatus.from_wire(row) for row in (payload or {}).get("jobs", [])]

    def result(self, job_id: str) -> dict:
        """Result summary of a finished job (409 ServeError otherwise)."""
        _, payload = self._request("GET", f"/jobs/{job_id}/result")
        return payload["result"]

    def cancel(self, job_id: str) -> JobState:
        """Request cancellation; returns the job's state afterwards."""
        _, payload = self._request("DELETE", f"/jobs/{job_id}")
        return JobState(payload["state"])

    def best(
        self,
        workload: str,
        device: str = "a100",
        method: str = "pruner",
        batch: int = 1,
        top_k_tasks: int | None = None,
    ) -> dict:
        """Best persisted schedule summary for a workload, from the store."""
        _, payload = self._request(
            "GET",
            "/best",
            query={
                "workload": workload,
                "device": device,
                "method": method,
                "batch": batch,
                "top_k_tasks": top_k_tasks,
            },
        )
        return payload

    def events(
        self, job_id: str, after: int = 0, poll_timeout: float = 30.0
    ):
        """Yield a job's progress events as they happen (long-poll loop).

        Each event is a dict with a monotonically increasing ``seq``, a
        ``type`` (submitted/leased/round/requeued/cancelled/done/failed)
        and a ``state``.  Iteration ends once the job is terminal and
        its history is drained — so ``for event in client.events(id)``
        follows a job from submission to the end without busy-polling.
        ``after`` resumes from a previous cursor (last seen ``seq``).
        """
        cursor = int(after)
        while True:
            _, payload = self._request(
                "GET",
                f"/jobs/{job_id}/events",
                query={"after": cursor, "timeout": poll_timeout},
                # the server may hold the poll for poll_timeout before
                # answering; the transport deadline must outlast it
                timeout=self.timeout + poll_timeout,
            )
            payload = payload or {}
            batch = payload.get("events") or []
            yield from batch
            cursor = int(payload.get("next", cursor))
            # terminal + empty batch = history fully drained.  With a
            # non-empty batch, poll once more: the terminal event may
            # have been published an instant after this response's
            # state was read.
            if payload.get("terminal") and not batch:
                return

    def wait(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.2
    ) -> JobStatus:
        """Poll until the job reaches a terminal state (or raise TimeoutError)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status.finished:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status.state.value!r} after {timeout}s"
                )
            time.sleep(poll)

    # ------------------------------------------------------------------
    # worker protocol (used by repro.serve.runner)
    # ------------------------------------------------------------------
    def lease(
        self,
        runner_id: str,
        ttl: float | None = None,
        wait: float = 0.0,
        have: str | None = None,
    ) -> dict | None:
        """Claim the next pending job; None when there is none (204).

        ``wait`` seconds is how long the server may hold the request for
        a job to arrive (a long poll); 204 comes only once it has passed.
        ``have`` names the checkpoint the runner holds (the digest
        :meth:`complete` returned); when it is still the stored one, the
        lease's ``checkpoint`` is ``{"ref", "trained_trials"}``.
        """
        body = {"runner_id": runner_id, "ttl": ttl, "wait": wait}
        if have is not None:
            body["have"] = have
        status, payload = self._request(
            "POST",
            "/lease",
            body=body,
            # the transport deadline must outlast the server-side wait
            timeout=self.timeout + wait,
        )
        if status == 204 or payload is None:
            return None
        return payload

    def heartbeat(
        self, lease_id: str, runner_id: str, progress: dict | None = None
    ) -> dict:
        body = {"runner_id": runner_id}
        if progress is not None:
            body["progress"] = progress
        _, payload = self._request(
            "POST", f"/lease/{lease_id}/heartbeat", body=body
        )
        return payload or {}

    def complete(
        self,
        lease_id: str,
        runner_id: str,
        job_id: str,
        result: dict,
        records: list[dict],
        blob: bytes | None = None,
    ) -> dict:
        """Deliver a finished job: result summary, fresh record rows and
        (optionally) the trained cost-model checkpoint blob, sent raw
        after the JSON part.  The answer's ``checkpoint_digest`` is the
        SHA-256 of the blob when the server stored it (None when it kept
        another)."""
        body = {
            "runner_id": runner_id,
            "job_id": job_id,
            "result": result,
            "records": records,
        }
        _, payload = self._request(
            "POST", f"/lease/{lease_id}/complete", body=body, blob=blob
        )
        return payload or {}

    def fail(self, lease_id: str, runner_id: str, error: str) -> dict:
        _, payload = self._request(
            "POST",
            f"/lease/{lease_id}/fail",
            body={"runner_id": runner_id, "error": error},
        )
        return payload or {}
