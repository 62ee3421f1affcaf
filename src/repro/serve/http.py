"""Stdlib HTTP plumbing: JSON routing over ``http.server``.

No third-party web framework — the serving layer runs anywhere the
interpreter does.  An *app* is any object with a ``routes`` attribute:
a list of ``(method, compiled path regex, handler)`` triples, where a
handler takes ``(match, query, body)`` and returns ``(status, payload)``
(payload is JSON-serialized; named regex groups carry path parameters).
:func:`make_server` binds an app to a :class:`ThreadingHTTPServer`, so
each connection runs on its own thread — the app owns all shared state
and its locking.  Connections are HTTP/1.1 keep-alive with
``TCP_NODELAY`` set: without it, Nagle's algorithm holds back the
response body (written after the headers) until the client's delayed
ACK, some 40 ms a request.  A reply sent before the request's body was
read (a malformed or oversized ``Content-Length``, a chunked body)
closes the connection, since the unread bytes would parse as the next
request.  A body of type :data:`~repro.serve.protocol.FRAMED_CONTENT_TYPE`
is a JSON object line, ``\n``, then raw bytes: the handler gets the
object with those bytes under its ``"blob"`` key.

Two optional app attributes gate every request before routing:

* ``auth_token`` — a shared secret; when set, requests must carry
  ``Authorization: Bearer <token>`` (constant-time compare) or they
  are rejected with 401.
* ``limiter`` — a :class:`TokenBucketLimiter`; when set, each client
  address draws one token per request and dry buckets get 429.

Rejections increment ``repro_http_unauthorized_total`` /
``repro_http_throttled_total`` in the app's metrics registry and never
reach a handler (or mint per-route metric labels).
"""

from __future__ import annotations

import hmac
import json
import re
import socket
import threading
import time
import urllib.parse
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs import CAUGHT
from repro.serve.protocol import FRAMED_CONTENT_TYPE, ServeError

#: Request body size cap (covers record uploads from a runner fleet;
#: anything bigger is a client bug, not tuning data).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Metric families for gate rejections (shared with repro.serve.app,
#: which pre-registers them so they render at 0 on an untouched server).
UNAUTHORIZED_METRIC = "repro_http_unauthorized_total"
UNAUTHORIZED_HELP = "Requests rejected for a missing or bad bearer token."
THROTTLED_METRIC = "repro_http_throttled_total"
THROTTLED_HELP = "Requests rejected by the per-client rate limit."


class TokenBucketLimiter:
    """Per-client token buckets: ``rate`` tokens/sec refill, ``burst`` cap.

    Thread-safe and bounded: the client map is LRU-evicted past
    :attr:`CLIENT_CAP`, so an address-churning flood cannot grow the
    server.  ``clock`` is injectable (monotonic seconds) so tests can
    refill buckets without sleeping.
    """

    CLIENT_CAP = 4096

    def __init__(self, rate: float, burst: float, clock=time.monotonic) -> None:
        rate = float(rate)
        burst = float(burst)
        if rate <= 0:
            raise ValueError(f"rate limit must be > 0 requests/sec, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must allow at least 1 request, got {burst}")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: OrderedDict[str, tuple[float, float]] = OrderedDict()

    def allow(self, key: str, cost: float = 1.0) -> bool:
        """Draw ``cost`` tokens from ``key``'s bucket; False when dry."""
        now = self._clock()
        with self._lock:
            tokens, stamp = self._buckets.get(key, (self.burst, now))
            tokens = min(self.burst, tokens + max(0.0, now - stamp) * self.rate)
            allowed = tokens >= cost
            if allowed:
                tokens -= cost
            self._buckets[key] = (tokens, now)
            self._buckets.move_to_end(key)
            while len(self._buckets) > self.CLIENT_CAP:
                self._buckets.popitem(last=False)
        return allowed


class HttpError(Exception):
    """A request refused at the HTTP layer (routing, body, access gate,
    handler-side validation); handlers raise it to short-circuit.  The
    app's own refusals arrive as :class:`~repro.serve.protocol.
    ServeError` and are answered the same way.

    ``payload`` (optional) is merged into the error response body, so a
    409 can still tell the client what state the job is actually in.
    """

    def __init__(self, status: int, message: str, payload: dict | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.payload = payload or {}


def route(method: str, pattern: str, handler) -> tuple[str, re.Pattern, object]:
    """One routing-table entry; ``pattern`` is full-matched against the path."""
    return (method, re.compile(pattern), handler)


@dataclass(frozen=True)
class TextResponse:
    """A non-JSON response body (e.g. Prometheus text for ``/metrics``).

    Handlers normally return dict payloads; returning a ``TextResponse``
    instead sends ``body`` verbatim under ``content_type``.
    """

    body: str
    content_type: str = "text/plain; charset=utf-8"


def _route_label(handler) -> str:
    """Stable per-route metric label: the handler name minus ``handle_``."""
    name = getattr(handler, "__name__", "unknown")
    return name.removeprefix("handle_")


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Dispatches requests against ``self.app.routes``; speaks JSON (and
    reads framed bodies)."""

    app = None  # bound by make_server
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"  # keep-alive (Content-Length always set)
    disable_nagle_algorithm = True  # headers and body are separate writes

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002 — stdlib name
        if getattr(self.app, "verbose", False):
            super().log_message(format, *args)

    def _read_body(self) -> dict:
        if self.headers.get("Transfer-Encoding"):
            self.close_connection = True  # the body is never read
            raise HttpError(411, "request bodies need a Content-Length")
        declared = self.headers.get("Content-Length")
        if declared is None:
            return {}
        declared = declared.strip()
        if not (declared.isascii() and declared.isdigit()):
            # the body's end is unknown: the connection cannot be resynchronized
            self.close_connection = True
            raise HttpError(400, f"malformed Content-Length {declared!r}")
        length = int(declared)
        if length == 0:
            return {}
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the unread body must not parse as a request
            raise HttpError(413, f"body too large ({length} bytes)")
        raw = self.rfile.read(length)
        blob = None
        if self.headers.get_content_type() == FRAMED_CONTENT_TYPE:
            raw, newline, blob = raw.partition(b"\n")
            if not newline:
                raise HttpError(400, "a framed body is a JSON line, '\\n', then bytes")
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise HttpError(400, f"request body is not JSON: {exc}") from None
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        if blob is not None:
            body["blob"] = blob
        return body

    def _count_rejection(self, name: str, help_text: str) -> None:
        metrics = getattr(self.app, "metrics", None)
        if metrics is None:
            return
        try:
            metrics.counter(name, help_text).inc()
        except ValueError:
            pass  # a conflicting app-owned family must not break serving

    def _check_access(self) -> None:
        """Gate the request: 401 without the bearer token, 429 when the
        client's token bucket is dry.  Runs after the body read (an
        unread body would desync the keep-alive connection) and before
        routing, so rejected requests never mint per-route labels.
        """
        token = getattr(self.app, "auth_token", None)
        if token:
            header = self.headers.get("Authorization") or ""
            scheme, _, presented = header.partition(" ")
            if scheme.lower() != "bearer" or not hmac.compare_digest(
                presented.strip().encode("utf-8"), token.encode("utf-8")
            ):
                self._count_rejection(UNAUTHORIZED_METRIC, UNAUTHORIZED_HELP)
                raise HttpError(401, "missing or invalid bearer token")
        limiter = getattr(self.app, "limiter", None)
        if limiter is not None:
            client = self.client_address[0] if self.client_address else "?"
            if not limiter.allow(client):
                self._count_rejection(THROTTLED_METRIC, THROTTLED_HELP)
                raise HttpError(429, "rate limit exceeded; retry later")

    def _respond(self, status: int, payload: dict | TextResponse | None) -> None:
        if isinstance(payload, TextResponse):
            data = payload.body.encode("utf-8")
            content_type = payload.content_type
        else:
            data = b"" if payload is None else json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if data:
            self.wfile.write(data)

    def _observe(self, method: str, route_label: str, status: int, t0: float) -> None:
        """Record one served request into the app's metrics registry.

        Only matched routes are recorded — 404s over arbitrary paths
        would otherwise mint unbounded label values.
        """
        metrics = getattr(self.app, "metrics", None)
        if metrics is None:
            return
        try:
            metrics.histogram(
                "repro_http_request_seconds",
                "HTTP request handling latency.",
                labels=("method", "route"),
            ).labels(method=method, route=route_label).observe(
                time.perf_counter() - t0
            )
            metrics.counter(
                "repro_http_requests_total",
                "HTTP requests served.",
                labels=("method", "route", "code"),
            ).labels(method=method, route=route_label, code=str(status)).inc()
        except ValueError:
            pass  # a conflicting app-owned family must not break serving

    def _dispatch(self, method: str) -> None:
        path, _, raw_query = self.path.partition("?")
        route_label: str | None = None
        t0 = time.perf_counter()
        try:
            query = {
                key: values[0]
                for key, values in urllib.parse.parse_qs(raw_query).items()
            }
            body = self._read_body()
            self._check_access()
            for verb, pattern, handler in self.app.routes:
                if verb != method:
                    continue
                match = pattern.fullmatch(path)
                if match is None:
                    continue
                route_label = _route_label(handler)
                status, payload = handler(match, query, body)
                self._respond(status, payload)
                self._observe(method, route_label, status, t0)
                return
            raise HttpError(404, f"no route for {method} {path}")
        except (HttpError, ServeError) as exc:
            self._respond(exc.status, {"error": exc.message, **exc.payload})
            if route_label is not None:
                self._observe(method, route_label, exc.status, t0)
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to tell it
        except Exception as exc:  # noqa: BLE001 — a handler bug must not kill the server
            CAUGHT.labels(site="serve.http").inc()
            self._respond(500, {"error": f"{type(exc).__name__}: {exc}"})
            if route_label is not None:
                self._observe(method, route_label, 500, t0)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — stdlib dispatch names
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class JsonHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that ends its kept-alive connections on close.

    A handler thread serves one connection until the client closes it,
    so :meth:`server_close` shuts the read side of every open
    connection: idle ones end at once, and one mid-request still sends
    its reply first.  A client's next request then reconnects instead of
    reaching a handler of the closed server.
    """

    daemon_threads = True  # in-flight handlers must not block exit

    def __init__(self, *args, **kwargs) -> None:
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the handler closed it meanwhile


def make_server(app, host: str = "127.0.0.1", port: int = 0) -> JsonHTTPServer:
    """A threading HTTP server bound to ``app`` (port 0 = ephemeral).

    The caller owns the lifecycle: ``serve_forever()`` (usually on a
    background thread), then ``shutdown()`` + ``server_close()``.
    """
    handler = type("BoundJsonHandler", (JsonRequestHandler,), {"app": app})
    return JsonHTTPServer((host, port), handler)
