"""Typed Python SDK for the tuning server (stdlib ``urllib`` only).

    from repro.serve.client import ServeClient

    client = ServeClient("http://127.0.0.1:8537", auth_token="s3cret")
    job_id = client.submit("bert_tiny", device="a100", rounds=8)
    for event in client.events(job_id):            # long-poll stream
        print(event["type"], event.get("round"))
    status = client.wait(job_id, timeout=120)      # JobStatus dataclass
    summary = client.result(job_id)                # result summary dict
    best = client.best("bert_tiny", device="a100")

The same class is the runner side of the worker protocol
(:meth:`register` / :meth:`lease` / :meth:`heartbeat` /
:meth:`complete` / :meth:`fail`) — one wire client, two audiences.
``auth_token`` (when the server requires one) rides every request as
``Authorization: Bearer``.  Server-reported errors raise
:class:`ServeError` carrying the HTTP status; transport failures raise
the underlying ``OSError``.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass

from repro.serve.protocol import ServeError
from repro.service.jobs import TERMINAL_STATES, JobState


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

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        query: dict | None = None,
        timeout: float | None = None,
    ) -> tuple[int, dict | None]:
        url = self.base_url + path
        if query:
            pairs = {k: str(v) for k, v in query.items() if v is not None}
            url += "?" + urllib.parse.urlencode(pairs)
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data else {}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        request = urllib.request.Request(
            url, data=data, method=method, headers=headers
        )
        timeout = self.timeout if timeout is None else timeout
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                raw = response.read()
                status = response.status
        except urllib.error.HTTPError as exc:
            payload = self._parse(exc.read())
            message = (
                payload.get("error", exc.reason)
                if isinstance(payload, dict)
                else str(exc.reason)
            )
            raise ServeError(
                exc.code, message, payload if isinstance(payload, dict) else None
            ) from None
        return status, self._parse(raw)

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

    def runners(self) -> list[dict]:
        """Registered runners and their capability tags (``GET /runners``)."""
        _, payload = self._request("GET", "/runners")
        return (payload or {}).get("runners", [])

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
    def register(self, runner_id: str, tags: dict | None = None) -> dict:
        """Advertise a runner and its capability tags to the server.

        Tags on the matching keys (device/method/network) constrain
        which jobs the server will lease to this runner.
        """
        _, payload = self._request(
            "POST",
            "/runners/register",
            body={"runner_id": runner_id, "tags": tags or {}},
        )
        return payload or {}

    def lease(
        self,
        runner_id: str,
        ttl: float | None = None,
        tags: dict | None = None,
    ) -> dict | None:
        """Claim a tag-compatible job; None when nothing matches (204).

        ``tags`` (when given) re-registers the runner on every poll, so
        a restarted server re-learns the fleet without runner restarts.
        """
        body = {"runner_id": runner_id, "ttl": ttl}
        if tags is not None:
            body["tags"] = tags
        status, payload = self._request("POST", "/lease", body=body)
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
        checkpoint: dict | None = None,
    ) -> dict:
        """Deliver a finished job: result summary, fresh record rows and
        (optionally) the trained cost-model checkpoint envelope."""
        body = {
            "runner_id": runner_id,
            "job_id": job_id,
            "result": result,
            "records": records,
        }
        if checkpoint is not None:
            body["checkpoint"] = checkpoint
        _, payload = self._request(
            "POST", f"/lease/{lease_id}/complete", body=body
        )
        return payload or {}

    def fail(self, lease_id: str, runner_id: str, error: str) -> dict:
        _, payload = self._request(
            "POST",
            f"/lease/{lease_id}/fail",
            body={"runner_id": runner_id, "error": error},
        )
        return payload or {}
