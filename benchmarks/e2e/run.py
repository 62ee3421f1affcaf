"""End-to-end layered benchmark: whole tuning jobs, in process and over a socket.

One workload, as ``BENCHMARK.json``'s command runs it::

    python3 benchmarks/e2e/run.py --workload online_pruner --seed 0 --seconds 20 --trace 0

prints every metric by name, unit and sample count, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics from untraced jobs with ``--trace 0``, the per-layer metrics
with ``--trace 1`` (half the jobs untraced, the same seeds again under
the tracer; the gap between the halves is the tracing overhead).

Without ``--workload`` it runs all four, each in a fresh process, both
ways, and writes the absolute numbers to ``results/BENCH_11.json``;
``--compare-runs`` does that twice and fails if the two sets differ by
more than a metric's bound.  See README.md beside this file.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
RESULTS = HERE / "results"
if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {REPO / 'src' / 'repro'} is missing")
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

import metrics as M  # noqa: E402
import serve_session as S  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer, dump_spans, load_spans  # noqa: E402

IMPORT_S = time.perf_counter() - _PROCESS_START

RUN_SECONDS = 20
SETUP_REPS = 3
#: untraced runs behind each end-to-end number of the all-workloads mode
RUNS_PER_SET = 3
WORKER_TIMEOUT_S = 170
SMOKE_SECONDS = 0.4
#: a span-vs-RoundProgress.stages disagreement above this is printed as a warning
STAGE_TOLERANCE = 0.10


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_value(samples: list[float]) -> M.Value:
    """Imports (paid once per process) plus the median repeatable set-up."""
    return M.Value(IMPORT_S + M.median(samples), len(samples))


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------
def run_tune_workload(spec: W.TuneWorkload, seed: int, seconds: float, trace: bool,
                      setup_reps: int) -> dict:
    setups = []
    for _ in range(setup_reps):
        start = time.perf_counter()
        ctx = W.setup_tune(spec)
        setups.append(time.perf_counter() - start)
    warmup = W.run_tune_job(ctx, W.job_seed(seed, 0), rounds=2)
    if warmup.errors:
        raise RuntimeError(f"warm-up job failed: {warmup.errors}")

    jobs = W.planned_jobs(seconds, spec.nominal_job_s, at_least=2)
    traced: list[W.JobSample] = []
    spans: list[dict] = []
    if trace:
        seeds = [W.job_seed(seed, i) for i in range(max(2, (jobs + 1) // 2))]
        untraced = [W.run_tune_job(ctx, s) for s in seeds]
        tracer = Tracer()
        with tracer:
            for s in seeds:
                tracer.job = f"{spec.name}/{s}"
                traced.append(W.run_tune_job(ctx, s, root=tracer.span))
        spans = tracer.export("bench")
        # the tracer must not change what a job computes
        for plain, wrapped in zip(untraced, traced):
            wrapped.errors += W.check_same_seed(plain, wrapped)
    else:
        # the last job repeats the first seed: timed like the rest, and
        # its counted outputs must equal the first job's
        seeds = [W.job_seed(seed, i) for i in range(jobs - 1)] + [W.job_seed(seed, 0)]
        untraced = [W.run_tune_job(ctx, s) for s in seeds]
        untraced[-1].errors += W.check_same_seed(untraced[0], untraced[-1])

    ok = [s for s in untraced if s.fresh_trials]
    out = {
        "samples": untraced + traced,
        "end_to_end": M.end_to_end(
            untraced,
            setup_value(setups),
            M.Value(M.median([s.cpu_s for s in ok]), len(ok)),
            [s.final_latency / ctx.baseline for s in ok if math.isfinite(s.final_latency)],
            peak_rss_mb(),
        ),
        "info": {"baseline_latency_s": ctx.baseline, "target_latency_s": ctx.target},
    }
    if trace:
        out["spans"] = spans
        out["per_layer"] = M.per_layer(M.Spans(spans, len(traced)), traced, untraced)
    return out


def run_serve_workload(spec: W.ServeWorkload, seed: int, seconds: float, trace: bool,
                       setup_reps: int) -> dict:
    RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    try:
        return _run_serve(spec, seed, seconds, trace, setup_reps, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run_serve(spec, seed, seconds, trace, setup_reps, scratch: Path) -> dict:
    count = W.planned_jobs(seconds, spec.nominal_chain_s, at_least=1)
    chains = S.plan_chains(spec, seed, max(1, count // 2) if trace else count)

    def boot(name: str, traced: bool = False):
        """Set-up: baselines, then server and runner up to the first /healthz."""
        start = time.perf_counter()
        baselines = S.setup_baselines(spec, chains)
        session = S.ServeSession(scratch / name, traced=traced)
        session.start()
        return session, baselines, time.perf_counter() - start

    def measure(session: S.ServeSession) -> tuple[list, dict]:
        """Timed jobs, then the checks and reads that need the server up."""
        try:
            samples = S.run_chains(session, spec, chains)
            S.check_chains(session, spec, samples)
            extras = S.scrape_metrics(session)
        finally:
            session.close()
        extras.update(S.disk_usage(session))
        return samples, extras

    setups = []
    for rep in range(setup_reps - 1):
        session, _, took = boot(f"boot{rep}")
        session.close()
        setups.append(took)
    cpu_before, _ = S.children_usage()
    session, baselines, took = boot("untraced")
    setups.append(took)
    untraced, _ = measure(session)
    cpu_after, children_rss = S.children_usage()

    def latency_ratios(samples: list) -> list[float]:
        last = {s.chain: s for s in samples if not s.errors}  # a chain's last job wins
        return [s.final_latency / baselines[c] for c, s in last.items()
                if math.isfinite(s.final_latency)]

    out = {
        "samples": list(untraced),
        "end_to_end": M.end_to_end(
            untraced,
            setup_value(setups),
            # server and runner from boot to exit, shared out over the timed jobs
            M.Value(M.ratio(cpu_after - cpu_before, len(untraced)), 1),
            latency_ratios(untraced),
            max(peak_rss_mb(), children_rss),
        ),
        "info": {"chains": len(chains), "jobs_per_chain": len(spec.chain_rounds)},
    }
    if trace:
        session, _, _ = boot("traced", traced=True)
        traced, extras = measure(session)
        remote = [
            span for role in ("server", "runner") for span in load_spans(session.span_dump(role))
        ]
        spans = M.assemble_serve_trace(traced, remote)
        out["samples"] += traced
        out["spans"] = spans
        out["per_layer"] = M.per_layer(
            M.Spans(spans, len([s for s in traced if not s.errors])), traced, untraced, extras
        )
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    spec = W.WORKLOADS[name]
    if smoke:
        spec = spec.smoke()
    run = run_serve_workload if isinstance(spec, W.ServeWorkload) else run_tune_workload
    out = run(spec, seed, seconds, trace, 1 if smoke else SETUP_REPS)
    samples = out.pop("samples")
    out["attempted"] = len(samples)
    out["errors"] = [f"{s.label}: {e}" for s in samples for e in s.errors]
    out["failed"] = sum(1 for s in samples if s.errors)
    if "spans" in out:
        dump_spans(RESULTS / f"trace_{name}.json", out.pop("spans"),
                   workload=name, seed=seed)
    return out


def report(name: str, out: dict, trace: bool) -> dict:
    """Print the metrics table; return the contract's result object."""
    tables = [("end-to-end (untraced jobs)", M.END_TO_END, out["end_to_end"])]
    if trace:
        tables.append(("per layer (traced jobs)", M.PER_LAYER, out["per_layer"]))
    for title, defs, values in tables:
        print(f"-- {name}: {title}")
        for metric in defs:
            value, n = values[metric.name]
            print(f"{metric.name:32s} {value:16.6f} {metric.unit:6s} n={n}")
    if trace:
        agreement = out["per_layer"]["obs.stage_agreement"].value
        if agreement and abs(agreement - 1.0) > STAGE_TOLERANCE:
            print(f"warning: benchmark spans and RoundProgress.stages disagree "
                  f"(worst ratio {agreement:.3f}); see ROADMAP item 5")
    for error in out["errors"]:
        print(f"FAILED {error}")
    shown, defs = (out["per_layer"], M.PER_LAYER) if trace else (out["end_to_end"], M.END_TO_END)
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m.name: {"value": shown[m.name].value, "unit": m.unit} for m in defs},
    }


def worker_main(args) -> int:
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    result = report(args.workload, out, bool(args.trace))
    if args.detail:
        detail = {
            key: {name: {"value": v.value, "n": v.n} for name, v in out[key].items()}
            for key in ("end_to_end", "per_layer") if key in out
        }
        detail.update(attempted=out["attempted"], failed=out["failed"],
                      errors=out["errors"], info=out["info"])
        Path(args.detail).write_text(json.dumps(detail), encoding="utf-8")
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# all workloads, each in a fresh process
# ----------------------------------------------------------------------
def environment(seed: int, seconds: float, smoke: bool) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # as found, never set by the benchmark
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
    }


def run_worker(name: str, seed: int, seconds: float, trace: int, smoke: bool,
               scratch: Path) -> dict | None:
    """One workload run in a fresh process; its detail, or None if it died."""
    detail = scratch / f"{name}-{seed}-{trace}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--detail", str(detail),
    ] + (["--smoke"] if smoke else [])  # fmt: skip
    # run() kills and reaps the worker on timeout and on Ctrl-C
    done = subprocess.run(command, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0 or not detail.exists():
        print(f"worker {name} --seed {seed} --trace {trace} exited {done.returncode}")
        return None
    return json.loads(detail.read_text(encoding="utf-8"))


def run_all(seed: int, seconds: float, smoke: bool) -> dict:
    """Every workload in fresh processes: untraced runs on seeds ``seed``,
    ``seed + 1``, ... (the median of each metric is kept), then one traced."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    results: dict[str, dict] = {}
    try:
        for name in W.WORKLOADS:
            plan = [(seed + i, 0) for i in range(1 if smoke else RUNS_PER_SET)] + [(seed, 1)]
            runs = [run_worker(name, s, seconds, trace, smoke, scratch) for s, trace in plan]
            died = runs.count(None)
            runs = [run for run in runs if run is not None]
            merged: dict = {
                "attempted": died + sum(run["attempted"] for run in runs),
                "failed": died + sum(run["failed"] for run in runs),
                "errors": [error for run in runs for error in run["errors"]],
            }
            # a traced run's untraced half is a smaller sample of the
            # end-to-end metrics; only the untraced runs' values are kept
            untraced = [run for run in runs if "per_layer" not in run]
            if untraced:
                merged["info"] = untraced[0]["info"]
                merged["end_to_end"] = {
                    m.name: {
                        "value": M.median([run["end_to_end"][m.name]["value"] for run in untraced]),
                        "runs": [run["end_to_end"][m.name]["value"] for run in untraced],
                        "n": untraced[0]["end_to_end"][m.name]["n"],
                    }
                    for m in M.END_TO_END
                }
            for run in runs:
                if "per_layer" in run:
                    merged["per_layer"] = run["per_layer"]
            results[name] = merged
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = {m.name: m.unit for m in M.END_TO_END + M.PER_LAYER}
    return {
        "benchmark": "benchmarks/e2e",
        "environment": environment(seed, seconds, smoke),
        "units": units,
        "bounds": {m.name: m.bound for m in M.END_TO_END},
        "workloads": results,
    }


def failed_share(results: dict) -> dict[str, float]:
    return {name: M.ratio(w["failed"], w["attempted"]) for name, w in results["workloads"].items()}


def save(results: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def compare(first: dict, second: dict) -> int:
    """Relative difference of two runs of the same code, beside each bound."""
    over = 0
    print(f"{'workload':18s} {'metric':22s} {'first':>14s} {'second':>14s}"
          f" {'diff':>8s} {'bound':>6s}")
    for name in first["workloads"]:
        a = first["workloads"][name].get("end_to_end", {})
        b = second["workloads"][name].get("end_to_end", {})
        for metric in M.END_TO_END:
            if metric.name not in a or metric.name not in b:
                print(f"{name:18s} {metric.name:22s} missing")
                over += 1
                continue
            x, y = a[metric.name]["value"], b[metric.name]["value"]
            diff = abs(y - x) / abs(x) if x else math.inf
            flag = "" if diff <= metric.bound else "  OVER"
            over += bool(flag)
            print(f"{name:18s} {metric.name:22s} {x:14.6f} {y:14.6f}"
                  f" {diff:8.2%} {metric.bound:6.0%}{flag}")
    return over


def orchestrator_main(args) -> int:
    if args.compare_runs:
        first = run_all(args.seed, args.seconds, args.smoke)
        second = run_all(args.seed, args.seconds, args.smoke)
        out = Path(args.out)
        save(first, out.with_name("compare_first.json"))
        save(second, out.with_name("compare_second.json"))
        over = compare(first, second)
        failures = sum(w["failed"] for r in (first, second) for w in r["workloads"].values())
        print(f"{over} metric(s) over their bound, {failures} failed operation(s)")
        return 1 if over or failures else 0
    results = run_all(args.seed, args.seconds, args.smoke)
    save(results, Path(args.out))
    shares = failed_share(results)
    for name, share in shares.items():
        print(f"{name:18s} failed_share {share:.4f}")
        for error in results["workloads"][name]["errors"]:
            print(f"  FAILED {error}")
    return 1 if any(shares.values()) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(W.WORKLOADS), default=None,
                        help="run this one workload in this process (default: all, "
                             "each in a fresh process)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"how long one run measures (default {RUN_SECONDS}; "
                             f"{SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics from traced jobs")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long variant of every workload (the tier-1 test)")
    parser.add_argument("--compare-runs", action="store_true",
                        help="run everything twice and compare against the bounds")
    parser.add_argument("--out", default=str(RESULTS / "BENCH_11.json"),
                        help="where the all-workloads mode writes its numbers")
    parser.add_argument("--detail", default=None,
                        help="also write values with sample counts here (one workload)")
    args = parser.parse_args(argv)
    # SIGTERM must unwind like Ctrl-C so every subprocess is stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else RUN_SECONDS
    return orchestrator_main(args) if args.workload is None else worker_main(args)


if __name__ == "__main__":
    sys.exit(main())
