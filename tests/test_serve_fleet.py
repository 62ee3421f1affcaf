"""Fleet control plane tests: bearer auth, per-client rate limits, and
job event streams.

Everything socket-facing runs over real ephemeral-port HTTP servers
(the ``Stack`` helper from ``test_serve``); the unit classes at the top
exercise the new shared structures directly.
"""

from __future__ import annotations

import re
import threading
import time
import urllib.request

import pytest
from test_serve import SPEC, FakeClock, Stack, run_runner_thread

from repro.serve.client import ServeClient, ServeError
from repro.serve.http import TokenBucketLimiter
from repro.serve.protocol import EventBroker
from repro.service.jobs import JobState


@pytest.fixture
def stack(tmp_path):
    s = Stack(tmp_path / "cache")
    yield s
    s.close()


def scrape(url: str, token: str | None = None) -> str:
    """Raw /metrics text (the SDK client only speaks JSON)."""
    request = urllib.request.Request(url + "/metrics")
    if token:
        request.add_header("Authorization", f"Bearer {token}")
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.read().decode("utf-8")


def metric_value(text: str, name: str) -> float:
    match = re.search(rf"^{re.escape(name)} (\S+)$", text, re.MULTILINE)
    assert match is not None, f"{name} not rendered"
    return float(match.group(1))


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------
class TestTokenBucketLimiter:
    def test_burst_then_refill(self):
        clock = FakeClock()
        limiter = TokenBucketLimiter(rate=1.0, burst=2.0, clock=clock)
        assert limiter.allow("c")
        assert limiter.allow("c")
        assert not limiter.allow("c")  # bucket dry
        clock.advance(1.0)
        assert limiter.allow("c")  # refilled at 1 token/sec
        assert not limiter.allow("c")

    def test_clients_are_isolated(self):
        limiter = TokenBucketLimiter(rate=1.0, burst=1.0, clock=FakeClock())
        assert limiter.allow("a")
        assert limiter.allow("b")  # a's dry bucket is not b's problem
        assert not limiter.allow("a")

    def test_bucket_map_is_lru_bounded(self):
        limiter = TokenBucketLimiter(rate=1.0, burst=1.0, clock=FakeClock())
        for i in range(TokenBucketLimiter.CLIENT_CAP + 7):
            limiter.allow(f"client-{i}")
        assert len(limiter._buckets) == TokenBucketLimiter.CLIENT_CAP

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            TokenBucketLimiter(rate=0, burst=5)
        with pytest.raises(ValueError):
            TokenBucketLimiter(rate=1, burst=0.5)


class TestEventBroker:
    def test_sequenced_publish_and_cursor(self):
        broker = EventBroker()
        broker.publish("job-1", {"type": "a"})
        broker.publish("job-1", {"type": "b"})
        broker.publish("job-2", {"type": "other"})  # topics are isolated
        events = broker.wait_for("job-1", after=0, timeout=0)
        assert [e["seq"] for e in events] == [1, 2]
        assert [e["type"] for e in events] == ["a", "b"]
        assert broker.wait_for("job-1", after=2, timeout=0) == []

    def test_seq_cannot_be_spoofed_by_the_event_body(self):
        broker = EventBroker()
        assert broker.publish("j", {"type": "a", "seq": 999})["seq"] == 1

    def test_history_is_bounded_with_a_visible_gap(self):
        broker = EventBroker()
        for i in range(EventBroker.TOPIC_CAP + 10):
            broker.publish("j", {"i": i})
        events = broker.wait_for("j", after=0, timeout=0)
        assert len(events) == EventBroker.TOPIC_CAP
        assert events[0]["seq"] == 11  # oldest dropped; the gap shows

    def test_wait_wakes_on_publish_not_timeout(self):
        broker = EventBroker()
        threading.Timer(
            0.05, lambda: broker.publish("j", {"type": "x"})
        ).start()
        t0 = time.monotonic()
        events = broker.wait_for("j", after=0, timeout=30.0)
        assert [e["type"] for e in events] == ["x"]
        assert time.monotonic() - t0 < 5.0  # woke early, did not sleep 30s

    def test_close_unblocks_waiters(self):
        broker = EventBroker()
        threading.Timer(0.05, broker.close).start()
        t0 = time.monotonic()
        assert broker.wait_for("j", after=0, timeout=30.0) == []
        assert time.monotonic() - t0 < 5.0


# ----------------------------------------------------------------------
# auth + rate limits
# ----------------------------------------------------------------------
ALL_ENDPOINTS = [
    ("GET", "/healthz"),
    ("GET", "/metrics"),
    ("POST", "/jobs"),
    ("GET", "/jobs"),
    ("GET", "/jobs/x"),
    ("GET", "/jobs/x/result"),
    ("GET", "/jobs/x/events"),
    ("DELETE", "/jobs/x"),
    ("GET", "/best"),
    ("POST", "/lease"),
    ("POST", "/lease/x/heartbeat"),
    ("POST", "/lease/x/complete"),
    ("POST", "/lease/x/fail"),
]


class TestAuth:
    def test_every_endpoint_401s_without_the_token(self, tmp_path):
        stack = Stack(tmp_path / "cache", auth_token="s3cret")
        try:
            anonymous = ServeClient(stack.url, timeout=10.0)
            wrong = ServeClient(stack.url, timeout=10.0, auth_token="nope")
            for client in (anonymous, wrong):
                for method, path in ALL_ENDPOINTS:
                    with pytest.raises(ServeError) as excinfo:
                        client._request(
                            method, path, body={} if method == "POST" else None
                        )
                    assert excinfo.value.status == 401, (method, path)
            # the right token reaches the handlers (and their errors)
            assert stack.client.healthz()["ok"] is True
            # every rejection above is on the counter, visible on /metrics
            rejected = 2 * len(ALL_ENDPOINTS)
            text = scrape(stack.url, token="s3cret")
            assert (
                metric_value(text, "repro_http_unauthorized_total") == rejected
            )
        finally:
            stack.close()

    def test_authed_job_flow_end_to_end(self, tmp_path):
        stack = Stack(tmp_path / "cache", auth_token="s3cret")
        try:
            client = stack.client
            job_id = client.submit("bert_tiny", **SPEC)
            leased = client.lease("r1")
            assert leased["job"]["job_id"] == job_id
            done = client.complete(
                leased["lease_id"], "r1", job_id,
                result={"final_latency": 1.0}, records=[],
            )
            assert done["state"] == "done"
        finally:
            stack.close()


class TestRateLimit:
    def test_burst_429_then_refill(self, tmp_path):
        clock = FakeClock()
        stack = Stack(
            tmp_path / "cache", clock=clock, rate_limit=1.0, rate_burst=3.0
        )
        try:
            client = stack.client
            for _ in range(3):
                client.healthz()  # the burst allowance
            with pytest.raises(ServeError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 429
            clock.advance(10.0)  # refill (clock drives the limiter)
            text = scrape(stack.url)
            assert metric_value(text, "repro_http_throttled_total") >= 1
            assert client.healthz()["ok"] is True  # back under the limit
        finally:
            stack.close()

    def test_rejection_families_render_at_zero_on_a_fresh_server(self, stack):
        text = scrape(stack.url)
        assert metric_value(text, "repro_http_unauthorized_total") == 0
        assert metric_value(text, "repro_http_throttled_total") == 0


# ----------------------------------------------------------------------
# job event streams
# ----------------------------------------------------------------------
class TestEventsOverHttp:
    def test_events_follow_the_job_lifecycle(self, stack):
        """Deterministic wire walk: submit/lease/heartbeat/complete each
        publish, and the client iterator replays them in order and ends
        on its own once the job is terminal."""
        client = stack.client
        job_id = client.submit("bert_tiny", rounds=2, scale="smoke", top_k_tasks=1)
        leased = client.lease("fake-runner")
        for i in (1, 2):
            client.heartbeat(
                leased["lease_id"], "fake-runner",
                progress={"round": i, "rounds": 2},
            )
        client.complete(
            leased["lease_id"], "fake-runner", job_id,
            result={"final_latency": 1.0}, records=[],
        )
        events = list(client.events(job_id, poll_timeout=0.2))
        assert [e["type"] for e in events] == [
            "submitted", "leased", "round", "round", "done",
        ]
        assert [e["seq"] for e in events] == [1, 2, 3, 4, 5]
        assert [e["round"] for e in events if e["type"] == "round"] == [1, 2]
        assert events[-1]["state"] == "done"

    def test_long_poll_wakes_on_heartbeat(self, stack):
        client = stack.client
        job_id = client.submit("bert_tiny", **SPEC)
        leased = client.lease("fake-runner")
        _, payload = client._request(
            "GET", f"/jobs/{job_id}/events", query={"after": 0, "timeout": 0}
        )
        cursor = payload["next"]  # past submitted + leased
        threading.Timer(
            0.2,
            lambda: client.heartbeat(
                leased["lease_id"], "fake-runner", progress={"round": 1}
            ),
        ).start()
        t0 = time.monotonic()
        _, payload = client._request(
            "GET",
            f"/jobs/{job_id}/events",
            query={"after": cursor, "timeout": 20},
            timeout=30.0,
        )
        assert time.monotonic() - t0 < 10.0  # woke on publish
        assert [e["type"] for e in payload["events"]] == ["round"]

    def test_terminal_job_returns_immediately(self, stack):
        client = stack.client
        job_id = client.submit("bert_tiny", **SPEC)
        leased = client.lease("fake-runner")
        client.complete(
            leased["lease_id"], "fake-runner", job_id,
            result={"final_latency": 1.0}, records=[],
        )
        t0 = time.monotonic()
        _, payload = client._request(
            "GET",
            f"/jobs/{job_id}/events",
            query={"after": 999, "timeout": 30},
        )
        assert time.monotonic() - t0 < 5.0  # no pointless 30s hold
        assert payload["terminal"] is True and payload["events"] == []
        assert payload["next"] == 999

    def test_lease_expiry_is_a_visible_event(self, tmp_path):
        clock = FakeClock()
        stack = Stack(tmp_path / "cache", lease_ttl=30.0, clock=clock)
        try:
            client = stack.client
            job_id = client.submit("bert_tiny", **SPEC)
            client.lease("doomed-runner")
            clock.advance(31.0)
            _, payload = client._request(
                "GET", f"/jobs/{job_id}/events", query={"timeout": 0}
            )
            requeues = [
                e for e in payload["events"] if e["type"] == "requeued"
            ]
            assert len(requeues) == 1
            assert requeues[0]["reason"] == "lease-expired"
            assert requeues[0]["runner"] == "doomed-runner"
            assert requeues[0]["state"] == "pending"
        finally:
            stack.close()

    def test_events_validation(self, stack):
        client = stack.client
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/jobs/no-such-job/events")
        assert excinfo.value.status == 404
        job_id = client.submit("bert_tiny", **SPEC)
        for query in (
            {"after": "-1"},
            {"after": "soon"},
            {"timeout": "-3"},
            {"timeout": "forever"},
        ):
            with pytest.raises(ServeError) as excinfo:
                client._request("GET", f"/jobs/{job_id}/events", query=query)
            assert excinfo.value.status == 400, query


# ----------------------------------------------------------------------
# the whole control plane at once
# ----------------------------------------------------------------------
class TestFleetEndToEnd:
    def test_auth_and_event_stream_with_a_real_runner(self, tmp_path):
        """Acceptance: an authenticated TuningRunner completes a
        job while a client follows it end to end over the event stream
        on a real socket."""
        stack = Stack(tmp_path / "cache", auth_token="fleet-secret")
        try:
            client = stack.client
            job_id = client.submit("bert_tiny", **SPEC)
            thread = run_runner_thread(stack.url, auth_token="fleet-secret")
            events = list(client.events(job_id, poll_timeout=2.0))
            thread.join(timeout=10)
            types = [e["type"] for e in events]
            assert types[0] == "submitted"
            assert "leased" in types
            assert sum(1 for t in types if t == "round") >= SPEC["rounds"]
            assert types[-1] == "done"
            assert [e["seq"] for e in events] == sorted(
                e["seq"] for e in events
            )
            assert client.status(job_id).state is JobState.DONE
        finally:
            stack.close()
