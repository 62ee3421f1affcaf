"""The serve transport: kept-alive connections, at-most-once requests,
and HTTP framing errors that must not wedge a connection.

Connections are counted on the server side, by wrapping the server's
``process_request`` (one call per accepted connection).
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.serve import client as client_module
from repro.serve.app import ServeApp
from repro.serve.client import ServeClient
from repro.serve.engine import JobEngine
from repro.serve.http import MAX_BODY_BYTES, make_server

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

    def test_a_good_request_keeps_the_connection_open(self, stack):
        port = stack.server.server_address[1]
        reply = exchange(port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert reply.endswith(b"<still open>")
