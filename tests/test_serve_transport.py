"""The serve transport: kept-alive connections, at-most-once requests,
HTTP framing errors that must not wedge a connection, and the framed
``complete`` (a JSON line, then the checkpoint blob) under malformed
bodies.

Connections are counted on the server side, by wrapping the server's
``process_request`` (one call per accepted connection).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costmodel import PaCM
from repro.serve import client as client_module
from repro.serve.app import ServeApp
from repro.serve.client import ServeClient
from repro.serve.engine import JobEngine
from repro.serve.http import MAX_BODY_BYTES, make_server
from repro.serve.protocol import FRAMED_CONTENT_TYPE
from repro.service.models import state_to_wire

from test_serve import SPEC, Stack


def count_connections(server) -> list:
    """Record the client address of every connection ``server`` accepts."""
    accepted: list = []
    process_request = server.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        process_request(request, client_address)

    server.process_request = counting
    return accepted


@pytest.fixture
def stack(tmp_path):
    s = Stack(tmp_path / "cache")
    yield s
    s.close()


def serve(engine: JobEngine, port: int = 0):
    """``engine`` behind a server on a daemon thread; (server, thread)."""
    server = make_server(ServeApp(engine), "127.0.0.1", port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def stop(server, thread, engine: JobEngine) -> None:
    server.shutdown()
    engine.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestKeepAlive:
    def test_one_threads_requests_share_one_connection(self, stack):
        accepted = count_connections(stack.server)
        client = stack.client
        job_id = client.submit("bert_tiny", **SPEC)
        for _ in range(10):
            assert client.status(job_id).job_id == job_id
        assert client.lease("r1", wait=0.0)["job"]["job_id"] == job_id
        client.healthz()
        assert len(accepted) == 1

    def test_two_threads_sharing_a_client_use_two_connections(self, stack):
        accepted = count_connections(stack.server)
        client = stack.client
        start = threading.Barrier(2)
        errors: list = []

        def poll() -> None:
            try:
                start.wait(timeout=5)
                for _ in range(10):
                    client.healthz()
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=poll) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert errors == []
        assert len(accepted) == 2

    def test_a_connection_idle_too_long_is_replaced(self, stack, monkeypatch):
        accepted = count_connections(stack.server)
        stack.client.healthz()
        stack.client.healthz()
        monkeypatch.setattr(client_module, "MAX_IDLE_S", 0.0)
        stack.client.healthz()
        assert len(accepted) == 2

    def test_a_server_restart_between_requests_is_survived(self, tmp_path):
        cache = tmp_path / "cache"
        engine = JobEngine(cache)
        server, thread = serve(engine)
        port = server.server_address[1]
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=10.0)
        first = client.submit("bert_tiny", **SPEC)
        stop(server, thread, engine)

        engine = JobEngine(cache)
        submitted: list = []
        submit = engine.submit

        def counting_submit(*args, **kwargs):
            submitted.append(args)
            return submit(*args, **kwargs)

        engine.submit = counting_submit
        server, thread = serve(engine, port)
        accepted = count_connections(server)
        try:
            # the kept-alive connection died with the old server: the
            # client connects afresh before writing, and writes once
            second = client.submit("bert_tiny", **SPEC)
            assert {status.job_id for status in client.jobs()} == {first, second}
        finally:
            stop(server, thread, engine)
        assert len(submitted) == 1
        assert len(accepted) == 1


class DroppingServer:
    """A stub that reads one whole request per connection, records it,
    and closes the connection without answering."""

    def __init__(self) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.requests: list[bytes] = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return  # listener closed
            with conn:
                self.requests.append(read_request(conn))

    def close(self) -> None:
        self.listener.close()
        self.thread.join(timeout=5)


def read_request(conn: socket.socket) -> bytes:
    """One request's bytes: headers, then ``Content-Length`` bytes of body."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return data
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = conn.recv(65536)
        if not chunk:
            break
        body += chunk
    return head + b"\r\n\r\n" + body


class TestAtMostOnce:
    def test_a_dropped_request_raises_and_is_not_resent(self):
        stub = DroppingServer()
        try:
            client = ServeClient(f"http://127.0.0.1:{stub.port}", timeout=5.0)
            with pytest.raises(OSError):
                client.submit("bert_tiny", **SPEC)
        finally:
            stub.close()
        assert len(stub.requests) == 1
        assert stub.requests[0].startswith(b"POST /jobs ")
        assert b'"network": "bert_tiny"' in stub.requests[0]


def exchange(port: int, raw: bytes) -> bytes:
    """Send ``raw`` on a fresh connection; everything read until the
    server closes it (or goes quiet for a second)."""
    with socket.create_connection(("127.0.0.1", port), timeout=1.0) as conn:
        conn.sendall(raw)
        received = b""
        while True:
            try:
                chunk = conn.recv(65536)
            except TimeoutError:
                return received + b"<still open>"
            except ConnectionResetError:
                return received  # closed with our unread bytes still queued
            if not chunk:
                return received
            received += chunk


class TestFraming:
    def test_a_malformed_content_length_is_400_and_closes(self, stack):
        port = stack.server.server_address[1]
        reply = exchange(
            port,
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"malformed Content-Length" in reply
        assert b"Connection: close" in reply
        assert reply.count(b"HTTP/1.1 ") == 1  # the tail was not served
        assert not reply.endswith(b"<still open>")

    @pytest.mark.parametrize("length", ["-5", "+5", "1_0", "５"])
    def test_every_non_digit_length_is_400(self, stack, length):
        port = stack.server.server_address[1]
        head = f"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
        reply = exchange(port, head.encode("utf-8") + b"{}")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert not reply.endswith(b"<still open>")

    def test_a_413_closes_the_connection_and_a_fresh_one_is_served(self, stack):
        port = stack.server.server_address[1]
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        head = (
            f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        ).encode("ascii")
        reply = exchange(port, head + smuggled)
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in reply
        # the unread body was not parsed as a second request
        assert reply.count(b"HTTP/1.1 ") == 1
        assert not reply.endswith(b"<still open>")
        fresh = exchange(port, b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        assert fresh.startswith(b"HTTP/1.1 200 ")

    def test_a_chunked_body_is_411_and_closes(self, stack):
        port = stack.server.server_address[1]
        reply = exchange(
            port,
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 411 ")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert not reply.endswith(b"<still open>")

    def test_a_deeply_nested_json_body_is_400_not_500(self, stack):
        """Found by the framed-``complete`` fuzz: ``json.loads`` raises
        RecursionError on deep nesting, which used to answer 500."""
        port = stack.server.server_address[1]
        body = b"[" * 100_000
        head = f"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n"
        reply = exchange(port, head.encode("ascii") + body)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.endswith(b"<still open>")  # the body was read: still in sync

    def test_a_good_request_keeps_the_connection_open(self, stack):
        port = stack.server.server_address[1]
        reply = exchange(port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply.endswith(b"<still open>")


# ----------------------------------------------------------------------
# the framed ``complete``: a JSON line, then the checkpoint blob
# ----------------------------------------------------------------------
def _rows(job_id: str) -> list[dict]:
    """Three record rows no other job ships (so all of them land)."""
    return [{"task_key": "t", "config_key": f"{job_id}-{i}", "latency": 1e-3} for i in range(3)]


def _framed(header: dict, blob: bytes) -> bytes:
    return json.dumps(header).encode() + b"\n" + blob


class TestFramedComplete:
    """Malformed ``POST /lease/{id}/complete`` bodies over one kept-alive
    connection: each answers 4xx, or 200 with ``checkpoint_stored:
    false``, never 5xx — and the connection then still serves
    ``GET /healthz``."""

    @pytest.fixture(scope="class")
    def stack(self, tmp_path_factory):
        # one server for the class: every case leases its own job
        s = Stack(tmp_path_factory.mktemp("framed") / "cache")
        yield s
        s.close()

    @pytest.fixture
    def conn(self, stack):
        conn = http.client.HTTPConnection(
            "127.0.0.1", stack.server.server_address[1], timeout=10.0
        )
        yield conn
        conn.close()

    @staticmethod
    def _lease(stack) -> tuple[str, str]:
        job_id = stack.engine.submit("bert_tiny", **SPEC)
        return job_id, stack.engine.lease("r1")["lease_id"]

    @staticmethod
    def _header(job_id: str) -> dict:
        return {
            "runner_id": "r1",
            "job_id": job_id,
            "result": {"final_latency": 1.0},
            "records": _rows(job_id),
        }

    @staticmethod
    def _post(conn, lease_id: str, body: bytes, content_type=FRAMED_CONTENT_TYPE):
        conn.request(
            "POST", f"/lease/{lease_id}/complete", body=body,
            headers={"Content-Type": content_type},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")

    @staticmethod
    def _still_serves(conn, sock) -> None:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        response.read()
        assert conn.sock is sock  # the same kept-alive connection

    def _check(self, stack, conn, body_for, content_type=FRAMED_CONTENT_TYPE):
        job_id, lease_id = self._lease(stack)
        if conn.sock is None:
            conn.connect()
        sock = conn.sock
        status, payload = self._post(conn, lease_id, body_for(job_id), content_type)
        assert status < 500, payload
        if status == 200:
            assert payload["checkpoint_stored"] is False
            assert payload["checkpoint_digest"] is None
            assert payload["records_ingested"] == 3
        else:
            assert 400 <= status < 500
        self._still_serves(conn, sock)
        return status, payload

    def test_a_good_blob_is_stored_under_its_own_digest(self, stack, conn):
        blob = state_to_wire(PaCM(seed=5).save_state(), trained_trials=3)
        job_id, lease_id = self._lease(stack)
        status, payload = self._post(conn, lease_id, _framed(self._header(job_id), blob))
        assert status == 200 and payload["checkpoint_stored"] is True
        assert payload["checkpoint_digest"] == hashlib.sha256(blob).hexdigest()

    @pytest.mark.parametrize(
        "head",
        [b"{not json", b"[1, 2]", b"\xff\xfe{}", b'"a string"', b"", b"[" * 100_000],
        ids=["not-json", "not-an-object", "not-utf8", "a-string", "empty", "deeply-nested"],
    )
    def test_a_bad_header_line_is_400(self, stack, conn, head):
        blob = state_to_wire(PaCM(seed=5).save_state(), trained_trials=3)
        status, _ = self._check(stack, conn, lambda job_id: head + b"\n" + blob)
        assert status == 400

    def test_a_missing_separator_is_400(self, stack, conn):
        status, payload = self._check(
            stack, conn, lambda job_id: json.dumps(self._header(job_id)).encode()
        )
        assert status == 400 and "framed" in payload["error"]

    def test_a_missing_runner_id_is_400(self, stack, conn):
        blob = state_to_wire(PaCM(seed=5).save_state(), trained_trials=3)
        status, _ = self._check(stack, conn, lambda job_id: _framed({"job_id": job_id}, blob))
        assert status == 400

    @pytest.mark.parametrize("k", [1, 8, 1000])
    def test_a_body_shorter_than_its_framed_parts(self, stack, conn, k):
        blob = state_to_wire(PaCM(seed=5).save_state(), trained_trials=3)
        status, _ = self._check(stack, conn, lambda job_id: _framed(self._header(job_id), blob)[:-k])
        assert status == 200

    @pytest.mark.parametrize("extra", [b"\0", b"\n", b"x" * 1000])
    def test_a_body_longer_than_its_framed_parts(self, stack, conn, extra):
        blob = state_to_wire(PaCM(seed=5).save_state(), trained_trials=3)
        status, _ = self._check(stack, conn, lambda job_id: _framed(self._header(job_id), blob) + extra)
        assert status == 200

    @given(junk=st.binary(max_size=200))
    @settings(max_examples=30, deadline=None, suppress_health_check=list(HealthCheck))
    def test_a_valid_header_with_a_junk_blob(self, stack, conn, junk):
        status, _ = self._check(stack, conn, lambda job_id: _framed(self._header(job_id), junk))
        assert status == 200

    def test_an_older_runners_all_json_body_lands_rows_and_result_only(self, stack, conn):
        envelope = {"ckpt_v": 1, "state_v": 1, "kind": "pacm", "params": {}}
        result = {"final_latency": 1.0}

        def body(job_id):
            return json.dumps({**self._header(job_id), "checkpoint": envelope}).encode()

        status, payload = self._check(stack, conn, body, content_type="application/json")
        assert status == 200
        assert stack.engine.result(payload["job_id"]) == result
