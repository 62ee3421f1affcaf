"""Command-line front end: ``python -m repro.serve <command>``.

Commands
--------
``server``
    Run the HTTP tuning server over a cache directory.  SIGINT/SIGTERM
    shuts down gracefully: the queue closes, active leases requeue
    their jobs, and the ledger is flushed — a restarted server (or any
    other sharing the cache dir) carries on where this one stopped.
``runner``
    Run a measurement runner against a server.  SIGINT/SIGTERM stops
    after the current job; a killed runner's lease simply expires and
    its job requeues server-side.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.errors import ReproError

DEFAULT_CACHE = ".pruner-cache"
DEFAULT_PORT = 8537


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _parse_tags(specs: list[str] | None) -> dict | None:
    """``--tags device=a100,network=bert_tiny`` (repeatable) -> tag dict.

    A key given more than once accumulates values: ``--tags
    device=a100 --tags device=t4`` advertises both devices.
    """
    if not specs:
        return None
    tags: dict[str, list[str]] = {}
    for spec in specs:
        for pair in spec.split(","):
            key, sep, value = pair.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise ReproError(
                    f"bad --tags entry {pair!r}: expected key=value"
                )
            tags.setdefault(key, [])
            if value not in tags[key]:
                tags[key].append(value)
    return tags


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="HTTP tuning service: REST front end + runner fleet",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    server = sub.add_parser("server", help="run the HTTP tuning server")
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument("--port", type=int, default=DEFAULT_PORT)
    server.add_argument("--cache-dir", default=DEFAULT_CACHE)
    server.add_argument(
        "--lease-ttl",
        type=_positive_float,
        default=None,
        help="seconds before a silent runner's job requeues (default 30)",
    )
    server.add_argument("--verbose", action="store_true", help="log every request")
    server.add_argument(
        "--no-checkpoints",
        action="store_true",
        help="do not ship or store cost-model checkpoints on the lease wire",
    )
    server.add_argument(
        "--auth-token",
        default=None,
        help="require 'Authorization: Bearer <token>' on every endpoint",
    )
    server.add_argument(
        "--rate-limit",
        type=_positive_float,
        default=None,
        help="per-client sustained requests/sec (default: unlimited)",
    )
    server.add_argument(
        "--rate-burst",
        type=_positive_float,
        default=10.0,
        help="per-client burst allowance above --rate-limit (default 10)",
    )
    server.add_argument(
        "--max-lease-ttl",
        type=_positive_float,
        default=None,
        help="longest lease TTL a runner may request (default 10x --lease-ttl)",
    )

    runner = sub.add_parser("runner", help="run a measurement runner")
    runner.add_argument(
        "--server",
        default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help="base URL of the tuning server",
    )
    runner.add_argument("--runner-id", default=None)
    runner.add_argument(
        "--poll", type=_positive_float, default=0.5, help="idle poll seconds"
    )
    runner.add_argument("--lease-ttl", type=_positive_float, default=None)
    runner.add_argument(
        "--max-jobs",
        type=_positive_int,
        default=None,
        help="exit after completing this many jobs",
    )
    runner.add_argument(
        "--idle-exit",
        action="store_true",
        help="exit as soon as the queue is empty (CI / batch drains)",
    )
    runner.add_argument(
        "--tags",
        action="append",
        default=None,
        metavar="KEY=VALUE[,KEY=VALUE...]",
        help=(
            "capability tags to advertise (repeatable); device/method/"
            "network tags constrain which jobs this runner is leased"
        ),
    )
    runner.add_argument(
        "--auth-token",
        default=None,
        help="bearer token for a server started with --auth-token",
    )
    return parser


def _install_stop_handlers(callback) -> None:
    """Route SIGINT/SIGTERM to ``callback`` (main thread only)."""
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: callback())


def _cmd_server(args: argparse.Namespace, out) -> int:
    from repro.serve.app import ServeApp
    from repro.serve.http import make_server

    app = ServeApp(
        args.cache_dir,
        lease_ttl=args.lease_ttl,
        verbose=args.verbose,
        checkpoints=not args.no_checkpoints,
        auth_token=args.auth_token,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        max_lease_ttl=args.max_lease_ttl,
    )
    server = make_server(app, args.host, args.port)
    host, port = server.server_address[:2]
    print(
        f"tuning server on http://{host}:{port}"
        f" (cache: {app.service.store.root})",
        file=out,
        flush=True,
    )

    stopping = threading.Event()
    _install_stop_handlers(stopping.set)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        stopping.wait()
    finally:
        print(
            "shutting down: closing queue, requeueing leased jobs,"
            " flushing ledger",
            file=out,
            flush=True,
        )
        server.shutdown()
        server.server_close()
        app.shutdown()
        thread.join(timeout=5)
    return 0


def _cmd_runner(args: argparse.Namespace, out) -> int:
    from repro.serve.runner import TuningRunner

    runner = TuningRunner(
        args.server,
        runner_id=args.runner_id,
        poll=args.poll,
        lease_ttl=args.lease_ttl,
        log=out,
        tags=_parse_tags(args.tags),
        auth_token=args.auth_token,
    )
    _install_stop_handlers(runner.stop)
    completed = runner.run_forever(
        max_jobs=args.max_jobs, idle_exit=args.idle_exit
    )
    print(f"runner exiting after {completed} job(s)", file=out, flush=True)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    handlers = {"server": _cmd_server, "runner": _cmd_runner}
    try:
        return handlers[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 1
