"""The benchmark's workloads: frozen definitions, set-up, one job, its checks.

Three workloads run whole tuning jobs in process through
``api.tune_subgraphs``; the fourth (``serve_small_jobs``, driven by
:mod:`serve_session`) sends jobs through a real server and runner.  All
are closed loops: one job at a time, the next starts when the previous
result is in hand.

Every number here is part of the benchmark's definition.  Changing one
changes what the metrics mean, so it is a benchmark change, not a
tuning knob.
"""

from __future__ import annotations

import math
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro import api
from repro.cache import cache_stats, clear_caches
from repro.config import TrainConfig
from repro.core.analyzer import is_launchable, is_launchable_mask
from repro.costmodel import PaCM, TenSetMLP
from repro.hardware.device import DeviceSpec, get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.rng import make_rng
from repro.schedule.batch import lower_batch
from repro.schedule.lower import lower
from repro.schedule.sampler import random_batch
from repro.search import make_tasks
from repro.workloads import network_tasks

#: ``MeasureRunner``'s log-normal noise; a recorded latency may differ
#: from the noise-free simulator by at most this many sigmas.
NOISE_SIGMA = 0.015
NOISE_SIGMAS = 5.0

BASELINE_SAMPLES = 64
BASELINE_SEED = 20250928

MEMO_CACHE = "schedule.memo.LOWERED_ROWS"
FEATURE_CACHE = "features.cache.FEATURE_ROWS"

_MODELS = {"pacm": PaCM, "mlp": TenSetMLP}


@dataclass(frozen=True)
class TuneWorkload:
    """An in-process workload: ``reps`` jobs of ``rounds`` tuning rounds."""

    name: str
    why: str
    method: str
    rounds: int
    #: wall seconds of one job on the 2-core box the sizes were chosen on;
    #: ``--seconds`` divided by this is the number of jobs a run measures
    nominal_job_s: float
    #: the job's target latency as a share of ``random_baseline_latency``
    target_fraction: float
    #: cost model pre-trained in set-up (None: the method trains online)
    pretrain: str | None = None
    pretrain_samples: int = 60
    pretrain_epochs: int = 40
    network: str = "resnet50"
    top_k: int = 6
    device: str = "a100"
    scale: str = "paper"

    def smoke(self) -> "TuneWorkload":
        """A seconds-long variant for the tier-1 test: same code paths."""
        return replace(
            self,
            rounds=4,
            top_k=2,
            scale="smoke",
            nominal_job_s=0.2,
            target_fraction=10.0,
            pretrain_samples=8,
            pretrain_epochs=4,
        )


@dataclass(frozen=True)
class ServeWorkload:
    """The socket workload: chains of small jobs on growing warm starts."""

    name: str
    why: str
    networks: tuple[str, ...]
    devices: tuple[str, ...]
    chain_rounds: tuple[int, ...]
    nominal_chain_s: float
    warmup_network: str = "bert_tiny"
    method: str = "pruner"
    scale: str = "smoke"
    #: one task a job: every new Tuner restarts the task scheduler's warm-up
    #: at the first task, so a chain of one-round jobs never tunes a second
    top_k: int = 1
    job_timeout_s: float = 30.0

    def smoke(self) -> "ServeWorkload":
        return replace(self, chain_rounds=(1, 2, 3), nominal_chain_s=0.4)


WORKLOADS: dict[str, TuneWorkload | ServeWorkload] = {
    w.name: w
    for w in (
        TuneWorkload(
            name="online_pruner",
            why=(
                "online draft-then-verify: CostModel.fit on a growing record log "
                "dominates; the two offline workloads bypass training"
            ),
            method="pruner",
            rounds=24,
            nominal_job_s=4.0,
            target_fraction=0.61,
        ),
        TuneWorkload(
            name="offline_pruner",
            why=(
                "frozen pre-trained PaCM: time sits in the LSE draft and lowering, "
                "then features and predict on the drafted set; never trains"
            ),
            method="pruner-offline",
            rounds=56,
            nominal_job_s=4.0,
            target_fraction=0.57,
            pretrain="pacm",
        ),
        TuneWorkload(
            name="offline_ansor",
            why=(
                "no draft: a frozen MLP scores every explored candidate through the "
                "lowering memo, so changes that favour the Pruner path show here"
            ),
            method="tensetmlp",
            rounds=40,
            nominal_job_s=3.8,
            target_fraction=0.58,
            pretrain="mlp",
        ),
        ServeWorkload(
            name="serve_small_jobs",
            why=(
                "one fresh round per job over a socket: lease payload, record and "
                "model stores, ledger and HTTP weigh as much as the search itself"
            ),
            # distinct heaviest tasks: networks that share one (gpt2 and llama
            # with bert_base) would share a store key and find it full
            networks=(
                "resnet50",
                "mobilenet_v2",
                "densenet121",
                "bert_base",
                "bert_large",
                "vit",
            ),
            # no k80: SymbolBasedAnalyzer.latency_batch raises DeviceError on a
            # device without TensorCores, so every pruner job there fails
            devices=("a100", "titanv", "orin", "t4"),
            chain_rounds=(1, 2, 3, 4, 5, 6),
            nominal_chain_s=0.72,
        ),
    )
}


def job_seed(seed: int, index: int) -> int:
    """The tuning seed of a run's ``index``-th job."""
    return (seed * 1000 + index) % (2**31)


def planned_jobs(seconds: float, nominal_s: float, at_least: int) -> int:
    """Jobs (or chains) that fill ``seconds`` at the nominal cost of one.

    A fixed plan rather than a stopwatch: the same ``--seed`` and
    ``--seconds`` then give the same jobs, so the counted metrics
    (latency ratio, simulated search time, funnel) repeat exactly.
    """
    return max(at_least, int(seconds / nominal_s + 0.5))


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def random_baseline_latency(subgraphs, device: DeviceSpec) -> float:
    """End-to-end latency a tuner-free random search reaches.

    Per task, the best of the first ``BASELINE_SAMPLES`` launchable
    ``random_batch`` schedules under a fixed RNG and the noise-free
    simulator, weighted like ``Tuner._curve_point``, plus the untuned
    element-wise part.  Independent of ``--seed``.
    """
    sim = GroundTruthSimulator(device)
    rng = make_rng(BASELINE_SEED)
    total = api.elementwise_latency(subgraphs, device)
    for task in make_tasks(subgraphs, device):
        latencies = np.empty(0)
        for _ in range(32):  # launchable shares are far above 1/32
            batch = lower_batch(task.space, random_batch(task.space, rng, BASELINE_SAMPLES))
            batch = batch.take(is_launchable_mask(batch, device))
            latencies = np.concatenate([latencies, sim.latency_batch(batch)])
            if len(latencies) >= BASELINE_SAMPLES:
                break
        best = float(np.min(latencies[:BASELINE_SAMPLES], initial=math.inf))
        if not math.isfinite(best):
            raise RuntimeError(f"no launchable random schedule for {task.key}")
        total += task.weight * best
    return total


@dataclass
class TuneContext:
    """What set-up hands to every job of an in-process workload."""

    spec: TuneWorkload
    subgraphs: list
    tasks: list
    baseline: float
    pretrained: dict | None

    @property
    def target(self) -> float:
        return self.spec.target_fraction * self.baseline


def setup_tune(spec: TuneWorkload) -> TuneContext:
    subgraphs = network_tasks(spec.network, top_k=spec.top_k)
    device = get_device(spec.device)
    pretrained = None
    if spec.pretrain is not None:
        pretrained = api.pretrain_model(
            _MODELS[spec.pretrain](),
            subgraphs,
            device,
            samples_per_task=spec.pretrain_samples,
            train=TrainConfig(epochs=spec.pretrain_epochs),
        )
    return TuneContext(
        spec=spec,
        subgraphs=subgraphs,
        tasks=api.tasks_for(spec.method, subgraphs, device),
        baseline=random_baseline_latency(subgraphs, device),
        pretrained=pretrained,
    )


# ----------------------------------------------------------------------
# one in-process job
# ----------------------------------------------------------------------
@dataclass
class JobSample:
    """Everything one job yields: timings, counted outputs, check failures."""

    seed: int
    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0
    round_s: list[float] = field(default_factory=list)
    time_to_target_s: float | None = None
    final_latency: float = math.inf
    sim_search_s: float = 0.0
    fresh_trials: int = 0
    funnel: dict[str, int] = field(default_factory=dict)
    stages: dict[str, float] = field(default_factory=dict)
    #: per cache: hits/misses/evictions during the job, rows at its end
    cache: dict[str, dict[str, int]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def label(self) -> str:
        return f"seed {self.seed}"

    #: every job of an in-process workload is the same job but for its seed
    stratum = None

    def counted(self) -> tuple:
        """The outputs that must repeat exactly for a seed."""
        return (self.final_latency, self.sim_search_s, sorted(self.funnel.items()))


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def add_counts(into: dict, more: dict) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value


def run_tune_job(
    ctx: TuneContext, seed: int, rounds: int | None = None, root=nullcontext
) -> JobSample:
    """One whole tuning job, timed from the call to the result in hand.

    ``rounds`` shortens the plan (the warm-up job, which is not checked);
    ``root`` opens the traced job's root span around exactly the timed call.
    """
    spec = ctx.spec
    sample = JobSample(seed=seed)
    target = ctx.target
    kwargs = {"pretrained": ctx.pretrained} if ctx.pretrained is not None else {}
    clear_caches()  # as the service does between jobs
    before = cache_stats()
    last = 0.0

    def on_round(progress) -> None:
        nonlocal last
        now = time.perf_counter()
        sample.round_s.append(now - last)
        last = now
        if sample.time_to_target_s is None and progress.latency <= target:
            sample.time_to_target_s = now - sample.start
        add_counts(sample.funnel, progress.funnel)
        add_counts(sample.stages, progress.stages)

    cpu0 = _cpu_seconds()
    sample.start = last = time.perf_counter()
    try:
        with root("bench.job"):
            result = api.tune_subgraphs(
                spec.method,
                ctx.subgraphs,
                spec.device,
                rounds=spec.rounds if rounds is None else rounds,
                scale=spec.scale,
                seed=seed,
                progress=on_round,
                **kwargs,
            )
    except Exception as exc:  # noqa: BLE001 — a job that raises is a failed operation
        sample.end = time.perf_counter()
        sample.errors.append(f"job raised {type(exc).__name__}: {exc}")
        return sample
    sample.end = time.perf_counter()
    sample.cpu_s = _cpu_seconds() - cpu0
    after = cache_stats()
    for name in (MEMO_CACHE, FEATURE_CACHE):
        sample.cache[name] = {
            key: after[name][key] - (0 if key == "rows" else before[name][key])
            for key in ("hits", "misses", "evictions", "rows")
        }
    sample.final_latency = result.final_latency
    sample.sim_search_s = result.clock.total
    sample.fresh_trials = result.fresh_trials
    if rounds is None:
        sample.errors += check_tune_result(ctx, result)
        if sample.time_to_target_s is None:
            sample.errors.append(
                f"never reached the target {target:.6g} s (ended at {result.final_latency:.6g} s)"
            )
    return sample


def check_tune_result(ctx: TuneContext, result) -> list[str]:
    """Output checks on one finished job; each message is a failure."""
    spec = ctx.spec
    errors = []
    search = api.resolve_scale(spec.scale)
    planned = spec.rounds * search.measure_per_round
    if result.fresh_trials != planned:
        errors.append(f"fresh_trials {result.fresh_trials} != planned {planned}")
    device = get_device(spec.device)
    sim = GroundTruthSimulator(device)
    for task in ctx.tasks:
        record = result.records.best(task.key)
        if record is None:
            errors.append(f"{task.key}: no valid trial")
            continue
        prog = lower(task.space, record.prog.config)
        if not is_launchable(prog, device):
            errors.append(f"{task.key}: best config is not launchable")
            continue
        truth = sim.latency(prog)
        if abs(math.log(record.latency / truth)) > NOISE_SIGMAS * NOISE_SIGMA:
            errors.append(
                f"{task.key}: recorded {record.latency:.6g} s vs simulator {truth:.6g} s"
            )
    return errors


def check_same_seed(first: JobSample, again: JobSample) -> list[str]:
    """Two jobs of one seed must agree on every counted output."""
    if first.counted() == again.counted():
        return []
    return [f"seed {first.seed} did not repeat: {first.counted()} vs {again.counted()}"]
