"""Command-line front end: ``python -m repro.serve <command>``.

Commands
--------
``server``
    Run the HTTP tuning server over a cache directory.  SIGINT/SIGTERM
    shuts down gracefully: the queue closes, active leases requeue
    their jobs, and the ledger is flushed — a restarted server (or any
    other engine sharing the cache dir) carries on where this one
    stopped.
``runner``
    Run a measurement runner against a server.  SIGINT/SIGTERM stops
    after the current job; a killed runner's lease simply expires and
    its job requeues server-side.
``tune``
    No socket: queue one job per ``--network`` (repeatable), drain them
    — and anything an earlier run left pending in the ledger — with one
    in-process runner, and print each job's best-schedule summary.  The
    first SIGINT/SIGTERM drains (in-flight jobs finish, pending ones
    stay queued in the ledger); a second cancels in-flight jobs at
    their next round boundary.
``status``
    Show the job ledger and per-key record-store statistics of a cache
    directory, without running anything.
``export``
    Dump every persisted record row as JSON (stdout or ``--output``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
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

    tune = sub.add_parser("tune", help="queue tuning jobs and run them in process")
    tune.add_argument(
        "--network",
        action="append",
        required=True,
        help="network to tune (repeat to queue several jobs)",
    )
    # job-spec values are range-checked by JobEngine.submit, the same
    # check POST /jobs goes through
    tune.add_argument("--device", default="a100")
    tune.add_argument("--method", default="pruner")
    tune.add_argument("--rounds", type=int, default=8)
    tune.add_argument("--scale", default="smoke")
    tune.add_argument("--batch", type=int, default=1)
    tune.add_argument("--top-k-tasks", type=int, default=None)
    tune.add_argument("--seed", type=int, default=None)
    tune.add_argument("--cache-dir", default=DEFAULT_CACHE)
    tune.add_argument(
        "--no-checkpoints",
        action="store_true",
        help="skip cost-model checkpoint warm starts (records still seed)",
    )

    status = sub.add_parser("status", help="show job ledger and store stats")
    status.add_argument("--cache-dir", default=DEFAULT_CACHE)
    status.add_argument(
        "--metrics",
        action="store_true",
        help="also summarize per-stage timings and the candidate funnel "
        "from the trace sink (<cache>/traces/)",
    )

    export = sub.add_parser("export", help="dump persisted records as JSON")
    export.add_argument("--cache-dir", default=DEFAULT_CACHE)
    export.add_argument("--output", default=None, help="file path (default: stdout)")
    return parser


def _install_stop_handlers(callback) -> None:
    """Route SIGINT/SIGTERM to ``callback`` (main thread only)."""
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: callback())


def _cmd_server(args: argparse.Namespace, out) -> int:
    from repro.serve.app import ServeApp
    from repro.serve.engine import JobEngine
    from repro.serve.http import make_server

    engine = JobEngine(
        args.cache_dir,
        lease_ttl=args.lease_ttl,
        checkpoints=not args.no_checkpoints,
        max_lease_ttl=args.max_lease_ttl,
    )
    app = ServeApp(
        engine,
        verbose=args.verbose,
        auth_token=args.auth_token,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
    )
    server = make_server(app, args.host, args.port)
    host, port = server.server_address[:2]
    print(
        f"tuning server on http://{host}:{port} (cache: {engine.store.root})",
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
        engine.shutdown()
        thread.join(timeout=5)
    return 0


def _announce_blas() -> None:
    """One stderr line: is a job one core here, or is the thread cap a no-op?

    Call after :mod:`repro.serve.runner` is imported — that import loads
    numpy, and with it the BLAS the cap looks for.
    """
    from repro.blas import single_thread

    with single_thread() as library:
        if library:
            line = f"blas: {library}, capped to 1 thread inside cost-model calls"
        else:
            line = "blas: no OpenBLAS found, thread cap inactive"
    print(line, file=sys.stderr, flush=True)


def _cmd_runner(args: argparse.Namespace, out) -> int:
    from repro.serve.runner import TuningRunner

    _announce_blas()
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


def _fmt_latency(latency: float | None) -> str:
    if latency is None or not math.isfinite(latency):
        return "n/a"
    return f"{latency * 1e6:.1f} us"


@contextlib.contextmanager
def _graceful_drain(engine, out):
    """Turn SIGINT/SIGTERM into a drain instead of an abrupt exit.

    First signal: stop starting new jobs — in-flight jobs run to
    completion, pending ones stay queued and are in the ledger as
    requeueable.  Second signal: also cancel in-flight jobs at their
    next round boundary (their partial records still reach the store).
    No-op off the main thread (tests drive the CLI from worker threads,
    where ``signal.signal`` is unavailable).
    """
    from repro.service.jobs import JobState

    if threading.current_thread() is not threading.main_thread():
        yield
        return
    hits = {"count": 0}

    def handler(signum, frame):
        hits["count"] += 1
        if hits["count"] == 1:
            print(
                "\nshutdown requested: draining (in-flight jobs finish, "
                "pending jobs stay queued; signal again to cancel)",
                file=out,
            )
            engine.queue.close()
        else:
            print(
                "\ncancelling in-flight jobs at the next round boundary",
                file=out,
            )
            # only in-flight jobs: pending ones must stay requeueable
            # in the ledger, not flip to a terminal cancelled state
            for job in engine.queue.jobs():
                if job.state is JobState.RUNNING:
                    engine.cancel(job.job_id)

    previous = {
        signum: signal.signal(signum, handler)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        yield
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


def _cmd_tune(args: argparse.Namespace, out) -> int:
    from repro.serve.engine import JobEngine
    from repro.serve.protocol import unwire_float
    from repro.serve.runner import drain

    _announce_blas()
    engine = JobEngine(args.cache_dir, checkpoints=not args.no_checkpoints)
    for network in args.network:
        job_id = engine.submit(
            network,
            device=args.device,
            method=args.method,
            rounds=args.rounds,
            scale=args.scale,
            batch=args.batch,
            top_k_tasks=args.top_k_tasks,
            seed=args.seed,
        )
        print(f"queued {job_id}: {network}@{args.device} ({args.method})", file=out)
    # what this run will work on: the jobs just queued plus whatever an
    # earlier, drained or killed, run left pending in the ledger
    todo = [job.job_id for job in engine.queue.jobs() if job.state.value == "pending"]

    with _graceful_drain(engine, out):
        drain(engine)
    failed = 0
    for job_id in todo:
        job = engine.queue.get(job_id)
        print(f"\n{job.describe()}", file=out)
        if job.state.value != "done":
            failed += 1
            if job.error:
                print(f"  error: {job.error}", file=out)
            continue
        result = engine.result(job_id)
        print(
            f"  trials: {result['total_trials']} total"
            f" ({result['fresh_trials']} fresh, {result['seeded_trials']} from cache)",
            file=out,
        )
        latency = unwire_float(result["final_latency"])
        print(f"  final latency: {_fmt_latency(latency)}", file=out)
        summary = engine.best_schedule(
            job.network,
            device=job.device,
            method=job.method,
            batch=job.batch,
            top_k_tasks=job.top_k_tasks,
        )
        print("  best schedules:", file=out)
        for task_key, entry in sorted(summary["tasks"].items()):
            print(
                f"    {task_key}  x{entry['weight']}"
                f"  {_fmt_latency(entry['latency'])}  {entry['config']}",
                file=out,
            )
    print(f"\n{len(todo)} job(s): {engine.status()}", file=out)
    return 1 if failed else 0


def _cmd_status(args: argparse.Namespace, out) -> int:
    from repro.serve.engine import LEDGER_NAME
    from repro.service.jobs import JobQueue
    from repro.service.models import ModelStore
    from repro.service.store import RecordStore

    store = RecordStore(args.cache_dir)
    jobs = JobQueue.load_ledger(store.root / LEDGER_NAME)
    print(f"cache dir: {store.root}", file=out)
    print(f"jobs recorded: {len(jobs)}", file=out)
    for job in jobs:
        print(f"  {job.describe()}", file=out)
    print("record store:", file=out)
    stats = store.stats()
    if not stats:
        print("  (empty)", file=out)
    for entry in stats:
        print(
            f"  {entry['workload']}@{entry['device']} ({entry['method']}):"
            f" {entry['records']} records,"
            f" best {_fmt_latency(entry['best_latency'])}",
            file=out,
        )
    print("model checkpoints:", file=out)
    checkpoints = ModelStore(args.cache_dir).stats()
    if not checkpoints:
        print("  (none)", file=out)
    for entry in checkpoints:
        print(
            f"  {entry['workload']}@{entry['device']} ({entry['method']}):"
            f" {entry['kind']} trained on {entry['trained_trials']} trials",
            file=out,
        )
    if args.metrics:
        _print_trace_metrics(store.root, out)
    return 0


def _print_trace_metrics(root, out) -> None:
    """Aggregate the trace sink into a stage/funnel summary."""
    from repro.obs import TraceSink

    summary = TraceSink(root / "traces").summarize()
    print("tuning metrics:", file=out)
    if not summary["rounds"]:
        print("  (no traces recorded)", file=out)
        return
    print(
        f"  {summary['rounds']} round(s) across {summary['jobs']} job(s),"
        f" {summary['total_s']:.3f} s total",
        file=out,
    )
    total = summary["total_s"] or 1.0
    print("  stage breakdown:", file=out)
    for stage, seconds in sorted(
        summary["stages"].items(), key=lambda kv: -kv[1]
    ):
        print(
            f"    {stage:<10} {seconds:9.3f} s  ({100.0 * seconds / total:5.1f}%)",
            file=out,
        )
    if summary["funnel"]:
        print("  candidate funnel:", file=out)
        for stage in ("drafted", "lowered", "gated", "measured"):
            if stage in summary["funnel"]:
                print(f"    {stage:<10} {summary['funnel'][stage]}", file=out)
        for stage, count in sorted(summary["funnel"].items()):
            if stage not in ("drafted", "lowered", "gated", "measured"):
                print(f"    {stage:<10} {count}", file=out)


def _cmd_export(args: argparse.Namespace, out) -> int:
    from repro.serve.engine import JobEngine

    rows = JobEngine(args.cache_dir).export()
    payload = json.dumps(rows, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"wrote {len(rows)} records to {args.output}", file=out)
    else:
        print(payload, file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    handlers = {
        "server": _cmd_server,
        "runner": _cmd_runner,
        "tune": _cmd_tune,
        "status": _cmd_status,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 1
    except KeyboardInterrupt:
        # outside the drain window (submission, printing): exit cleanly
        # with the conventional interrupted status instead of a traceback
        print("interrupted", file=out)
        return 130
    except BrokenPipeError:
        # stdout consumer (head, less) closed the pipe early; point the
        # fd at devnull so the interpreter's shutdown flush doesn't hit
        # the broken pipe again and taint the exit status
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0
