"""The socket workload: a real server and runner as subprocesses.

``ServeSession`` owns both processes: ephemeral port, cache directory
under the benchmark's own scratch directory, readiness by polling
``/healthz``, and ``terminate()`` + ``wait()`` on every way out.  Jobs
go through ``ServeClient`` one at a time: submit, follow ``events()``
to the end, fetch ``result()``.
"""

from __future__ import annotations

import math
import os
import re
import resource
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import api
from repro.hardware.device import get_device
from repro.rng import make_rng
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import unwire_float
from repro.service.jobs import JobState
from repro.service.store import RecordStore, store_key_for_tasks
from repro.workloads import network_tasks

from workloads import ServeWorkload, add_counts, job_seed, random_baseline_latency

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

BOOT_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
_URL = re.compile(r"http://[\d.]+:(\d+)")
_REQUESTS = re.compile(r'^repro_http_requests_total\{(.*)\} (\S+)$', re.M)


class ServeSession:
    """A server and a runner on a loopback socket, for one set of jobs.

    ``traced`` starts both through :mod:`serve_launch`, which installs
    the tracer, runs the same ``repro.serve`` command line, and dumps
    the spans to ``<work_dir>/spans_<role>.json`` on the way out.
    """

    def __init__(self, work_dir: Path, traced: bool = False) -> None:
        self.work_dir = work_dir
        self.cache_dir = work_dir / "cache"
        self.traced = traced
        self.url = ""
        self._procs: list[subprocess.Popen] = []
        self._logs = []

    def span_dump(self, role: str) -> Path:
        return self.work_dir / f"spans_{role}.json"

    def _spawn(self, role: str, *args: str) -> subprocess.Popen:
        if self.traced:
            head = [str(HERE / "serve_launch.py"), str(self.span_dump(role)), role]
        else:
            head = ["-m", "repro.serve", role]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        log = (self.work_dir / f"{role}.log").open("w", encoding="utf-8")
        self._logs.append(log)
        proc = subprocess.Popen(
            [sys.executable, *head, *args],
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
        )
        self._procs.append(proc)
        return proc

    def log_tail(self, role: str, lines: int = 15) -> str:
        path = self.work_dir / f"{role}.log"
        if not path.exists():
            return ""
        return "\n".join(path.read_text(encoding="utf-8").splitlines()[-lines:])

    def start(self) -> None:
        """Boot the server, wait for its first ``/healthz``, start the runner.

        Leaves no process behind when it fails.
        """
        try:
            self._start()
        except BaseException:
            self.close()
            raise

    def _start(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        server = self._spawn(
            "server", "--port", "0", "--cache-dir", str(self.cache_dir)
        )
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            if server.poll() is not None:
                raise RuntimeError(
                    f"server exited with {server.returncode}:\n{self.log_tail('server')}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(f"server not ready after {BOOT_TIMEOUT_S} s")
            if not self.url:
                found = _URL.search(self.log_tail("server"))
                if found:
                    self.url = f"http://127.0.0.1:{found.group(1)}"
            if self.url:
                try:
                    if ServeClient(self.url, timeout=1.0).healthz().get("ok"):
                        break
                except OSError:
                    pass  # listening socket not up yet
            time.sleep(0.01)
        self._spawn(
            "runner", "--server", self.url, "--poll", "0.01", "--runner-id", "bench-runner"
        )

    def close(self) -> None:
        """Stop the runner, then the server; wait for both to be gone."""
        for proc in reversed(self._procs):
            if proc.poll() is None:
                proc.terminate()
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs.clear()
        for log in self._logs:
            log.close()
        self._logs.clear()

    def kill(self) -> None:
        """Watchdog action: a job overran its timeout, unblock the client."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()


def children_usage() -> tuple[float, float]:
    """(CPU seconds, peak RSS MiB) of every child waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Chain:
    """Jobs ``rounds = 1, 2, ...`` on one (network, device): each finds
    the rows of the ones before it in the store and adds one fresh round."""

    network: str
    device: str
    seed: int


def plan_chains(spec: ServeWorkload, seed: int, chains: int) -> list[Chain]:
    """``chains`` distinct (network, device) pairs in a seed-shuffled order."""
    pairs = [(n, d) for n in spec.networks for d in spec.devices]
    chains = min(chains, len(pairs))  # a pair's second chain would find its store full
    order = make_rng(seed).permutation(len(pairs))[:chains]
    return [
        Chain(*pairs[int(at)], seed=job_seed(seed, i)) for i, at in enumerate(order)
    ]


def setup_baselines(spec: ServeWorkload, chains: list[Chain]) -> dict[Chain, float]:
    return {
        chain: random_baseline_latency(
            network_tasks(chain.network, top_k=spec.top_k), get_device(chain.device)
        )
        for chain in chains
    }


@dataclass
class ServeJobSample:
    """One job over the socket, as the client saw it."""

    chain: Chain
    rounds: int
    job_id: str = ""
    start: float = 0.0
    submitted: float = 0.0
    done: float = 0.0  # events() drained: the job is terminal
    end: float = 0.0  # result body in hand
    result: dict = field(default_factory=dict)
    round_s: list[float] = field(default_factory=list)
    funnel: dict[str, int] = field(default_factory=dict)
    stages: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    # what only an in-process job can observe: the socket workload has no
    # target, and the lowering and feature caches live in the runner
    time_to_target_s = None
    cache: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def label(self) -> str:
        return f"{self.chain.network}@{self.chain.device} rounds={self.rounds}"

    @property
    def stratum(self) -> int:
        """Jobs at the same place in their chains are alike: same seed rows."""
        return self.rounds

    @property
    def final_latency(self) -> float:
        return unwire_float(self.result.get("final_latency"))

    @property
    def sim_search_s(self) -> float:
        curve = self.result.get("curve") or []
        return float(curve[-1]["sim_time"]) if curve else 0.0

    @property
    def fresh_trials(self) -> int:
        return int(self.result.get("fresh_trials", 0))


def run_serve_job(
    session: ServeSession,
    client: ServeClient,
    spec: ServeWorkload,
    chain: Chain,
    rounds: int,
    network: str | None = None,
) -> ServeJobSample:
    """Submit one job, follow it to the end, fetch its result."""
    sample = ServeJobSample(chain=chain, rounds=rounds)
    # the client blocks in long polls with no deadline of its own; a job
    # that overruns gets both processes killed, which fails the poll
    watchdog = threading.Timer(spec.job_timeout_s, session.kill)
    watchdog.start()
    sample.start = time.perf_counter()
    try:
        sample.job_id = client.submit(
            network or chain.network,
            device=chain.device,
            method=spec.method,
            rounds=rounds,
            scale=spec.scale,
            top_k_tasks=spec.top_k,
            seed=chain.seed,
        )
        sample.submitted = time.perf_counter()
        for event in client.events(sample.job_id, poll_timeout=spec.job_timeout_s):
            if event.get("type") == "round":
                progress = event.get("progress") or {}
                sample.round_s.append(float(progress.get("round_s", 0.0)))
                add_counts(sample.funnel, progress.get("funnel") or {})
                add_counts(sample.stages, progress.get("stages") or {})
        sample.done = time.perf_counter()
        sample.result = client.result(sample.job_id)
        sample.end = time.perf_counter()
    except (ServeError, OSError) as exc:
        sample.end = time.perf_counter()
        sample.errors.append(
            f"{type(exc).__name__}: {exc}"
            + (" (job timed out)" if not watchdog.is_alive() else "")
        )
    finally:
        watchdog.cancel()
    return sample


def run_chains(
    session: ServeSession, spec: ServeWorkload, chains: list[Chain]
) -> list[ServeJobSample]:
    """The timed part: one warm-up job, then every chain link by link."""
    client = ServeClient(session.url)
    warmup = run_serve_job(session, client, spec, chains[0], 1, spec.warmup_network)
    if warmup.errors:
        raise RuntimeError(
            f"warm-up job failed: {warmup.errors}\n{session.log_tail('runner')}"
        )
    samples = []
    for chain in chains:
        for rounds in spec.chain_rounds:
            samples.append(run_serve_job(session, client, spec, chain, rounds))
    return samples


def check_chains(
    session: ServeSession, spec: ServeWorkload, samples: list[ServeJobSample]
) -> None:
    """Output checks against the server and the store it left on disk.

    Failures are appended to the ``errors`` of the chain's last job.
    """
    client = ServeClient(session.url)
    states = {status.job_id: status.state for status in client.jobs()}
    store = RecordStore(session.cache_dir)
    search = api.resolve_scale(spec.scale)
    by_chain: dict[Chain, list[ServeJobSample]] = {}
    for sample in samples:
        by_chain.setdefault(sample.chain, []).append(sample)
        if sample.errors:
            continue
        if states.get(sample.job_id) is not JobState.DONE:
            sample.errors.append(f"job ended {states.get(sample.job_id)!r}, not done")
        if sample.fresh_trials != search.measure_per_round:
            sample.errors.append(
                f"fresh_trials {sample.fresh_trials} != one round of "
                f"{search.measure_per_round}"
            )
    for chain, jobs in by_chain.items():
        last = jobs[-1]
        if any(job.errors for job in jobs):
            continue
        tasks = api.tasks_for(
            spec.method,
            network_tasks(chain.network, top_k=spec.top_k),
            get_device(chain.device),
        )
        on_disk = store.count(store_key_for_tasks(tasks, spec.method))
        fresh = sum(job.fresh_trials for job in jobs)
        if on_disk != fresh:
            last.errors.append(f"store holds {on_disk} rows, jobs measured {fresh}")
        best = client.best(
            chain.network, device=chain.device, method=spec.method, top_k_tasks=spec.top_k
        )
        for key, latency in last.result.get("best", {}).items():
            # a task with no valid trial is inf in the result, absent from /best
            stored = best.get("tasks", {}).get(key, {}).get("latency", math.inf)
            if stored != unwire_float(latency):
                last.errors.append(f"/best {key}: {stored} vs result {latency}")


def scrape_metrics(session: ServeSession) -> dict[str, float]:
    """One ``GET /metrics``: how long it took and what the server counted."""
    start = time.perf_counter()
    with urllib.request.urlopen(session.url + "/metrics", timeout=10.0) as response:
        text = response.read().decode("utf-8")
    took = time.perf_counter() - start
    requests = errors = 0.0
    for labels, value in _REQUESTS.findall(text):
        requests += float(value)
        code = re.search(r'code="(\d+)"', labels)
        if code and not code.group(1).startswith("2"):
            errors += float(value)
    return {"scrape_s": took, "requests": requests, "http_errors": errors}


def disk_usage(session: ServeSession) -> dict[str, float]:
    """Bytes the server left under its cache directory."""
    files = [p for p in session.cache_dir.rglob("*") if p.is_file()]
    checkpoints = [p.stat().st_size for p in files if p.parent.name == "models"
                   and p.name != "index.json"]
    return {
        "store_bytes": float(sum(p.stat().st_size for p in files)),
        "checkpoint_bytes": float(np.mean(checkpoints)) if checkpoints else 0.0,
    }
