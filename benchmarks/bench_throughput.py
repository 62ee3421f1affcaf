"""End-to-end candidate-pipeline throughput: batched vs pre-refactor scalar.

Measures candidates/second through the two stages of Pruner's
draft-then-verify pipeline:

* **draft** — a full Latent-Schedule-Explorer run (GA generations of
  lowering + Symbol-based-Analyzer scoring), batched
  (:mod:`repro.schedule.batch`) vs the pre-refactor scalar
  implementation (vendored below, one Python object per candidate);
* **verify** — learned-model scoring of a drafted set
  (``lower_batch`` + ``predict_batch`` vs per-program feature
  extraction + prediction);
* **measure** — simulating/noising/clock-charging the measurement
  batch (``MeasureRunner.measure_batch`` vs the pre-batching scalar
  loop, vendored below: per-program math-based simulation, one noise
  draw and clock charge at a time).

It also reports the **lowering memo**: candidates/second through
``lower_batch_memo`` for a cold round vs a warm round over the same
drafted set, plus how many rows each actually lowered
(``lowered_count`` deltas) — the warm round must lower strictly fewer.

Usage::

    python benchmarks/bench_throughput.py           # paper-ish scale
    python benchmarks/bench_throughput.py --quick   # CI smoke scale
    python benchmarks/bench_throughput.py --quick --check
    python benchmarks/bench_throughput.py --quick --update-floor

``--check`` compares against the floor checked into
``benchmarks/results/throughput_floor.json`` and exits non-zero when
any batched stage regresses below it, or when the warm memo round
stops beating the cold one (CI smoke job).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cache import clear_caches  # noqa: E402
from repro.config import SearchConfig  # noqa: E402
from repro.core.analyzer import SymbolBasedAnalyzer, is_launchable  # noqa: E402
from repro.core.lse import LatentScheduleExplorer  # noqa: E402
from repro.core.penalty import compute_penalties  # noqa: E402
from repro.core.symbols import extract_symbols  # noqa: E402
from repro.costmodel import PaCM  # noqa: E402
from repro.hardware.device import get_device  # noqa: E402
from repro.hardware.measure import MeasureRunner  # noqa: E402
from repro.hardware.simulator import _residual_net, residual_features  # noqa: E402
from repro.ir.ops import matmul  # noqa: E402
from repro.rng import make_rng  # noqa: E402
from repro.schedule.batch import lower_batch  # noqa: E402
from repro.schedule.lower import lower, lowered_count  # noqa: E402
from repro.schedule.memo import LOWERED_ROWS, lower_batch_memo  # noqa: E402
from repro.schedule.sampler import random_population  # noqa: E402
from repro.schedule.space import ScheduleConfig, divisors  # noqa: E402
from repro.search.task import TuningTask  # noqa: E402
from repro.timemodel import SimClock  # noqa: E402

FLOOR_PATH = Path(__file__).resolve().parent / "results" / "throughput_floor.json"


# ----------------------------------------------------------------------
# Pre-refactor scalar reference (vendored from the seed implementation).
# One Python call chain per candidate: sample -> mutate/crossover ->
# lower -> score, with per-config dict bookkeeping — the code path the
# batched pipeline replaced.
# ----------------------------------------------------------------------
def _scalar_sample_factorization(rng, extent, parts):
    factors = []
    remaining = extent
    for _ in range(parts - 1):
        d = int(rng.choice(divisors(remaining)))
        factors.append(d)
        remaining //= d
    factors.append(remaining)
    return tuple(factors)


def _scalar_random_config(space, rng):
    tile_map = {
        s.axis: _scalar_sample_factorization(rng, s.extent, s.parts)
        for s in space.splits
    }
    config = ScheduleConfig.from_map(
        tile_map,
        unroll=int(rng.choice(space.unroll_options)),
        vector=int(rng.choice(space.vector_options)),
        splitk=int(rng.choice(space.splitk_options)),
    )
    space.validate(config)
    return config


def _scalar_random_population(space, rng, size):
    seen = {}
    attempts = 0
    while len(seen) < size and attempts < size * 10:
        cfg = _scalar_random_config(space, rng)
        seen.setdefault(cfg.key, cfg)
        attempts += 1
    return list(seen.values())


def _scalar_swap_two(rng, factors):
    if len(factors) < 2:
        return factors
    i, j = rng.choice(len(factors), size=2, replace=False)
    out = list(factors)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _scalar_move_factor(rng, factors):
    donors = [i for i, f in enumerate(factors) if f > 1]
    if not donors:
        return factors
    i = int(rng.choice(donors))
    j = int(rng.choice([p for p in range(len(factors)) if p != i]))
    f = factors[i]
    p = 2
    while f % p != 0:
        p += 1
    out = list(factors)
    out[i] //= p
    out[j] *= p
    return tuple(out)


def _scalar_mutate(config, space, rng):
    kind = rng.random()
    splits = space.splits
    if kind < 0.45:  # resample one axis
        s = splits[int(rng.integers(len(splits)))]
        mutated = config.with_tile(
            s.axis, _scalar_sample_factorization(rng, s.extent, s.parts)
        )
    elif kind < 0.65:  # swap factors
        s = splits[int(rng.integers(len(splits)))]
        mutated = config.with_tile(s.axis, _scalar_swap_two(rng, config.factors(s.axis)))
    elif kind < 0.85:  # move a prime between levels
        s = splits[int(rng.integers(len(splits)))]
        mutated = config.with_tile(
            s.axis, _scalar_move_factor(rng, config.factors(s.axis))
        )
    else:  # annotation flip
        choice = rng.random()
        if choice < 0.5:
            mutated = config.with_annotations(unroll=int(rng.choice(space.unroll_options)))
        elif choice < 0.8:
            mutated = config.with_annotations(vector=int(rng.choice(space.vector_options)))
        else:
            mutated = config.with_annotations(splitk=int(rng.choice(space.splitk_options)))
    try:
        space.validate(mutated)
    except Exception:
        s = splits[int(rng.integers(len(splits)))]
        mutated = config.with_tile(
            s.axis, _scalar_sample_factorization(rng, s.extent, s.parts)
        )
        space.validate(mutated)
    return mutated


def _scalar_crossover(a, b, space, rng):
    tile_map = {}
    for s in space.splits:
        parent = a if rng.random() < 0.5 else b
        tile_map[s.axis] = parent.factors(s.axis)
    child = ScheduleConfig.from_map(
        tile_map,
        unroll=(a if rng.random() < 0.5 else b).unroll,
        vector=(a if rng.random() < 0.5 else b).vector,
        splitk=(a if rng.random() < 0.5 else b).splitk,
    )
    space.validate(child)
    return child


def scalar_explore(space, analyzer, cfg: SearchConfig, rng):
    """The seed's LSE loop: everything one candidate at a time."""
    population = _scalar_random_population(space, rng, cfg.population)
    spec: dict[str, tuple[float, ScheduleConfig]] = {}
    n_evals = 0

    def evaluate(pop):
        return [analyzer.score(lower(space, c)) for c in pop]

    def prior_filter(scores, pop):
        for c, s in zip(pop, scores):
            if s == float("-inf"):
                continue
            if c.key not in spec or spec[c.key][0] < s:
                spec[c.key] = (s, c)
        if len(spec) > cfg.spec_size:
            keep = sorted(spec.items(), key=lambda kv: kv[1][0], reverse=True)
            for key, _ in keep[cfg.spec_size :]:
                del spec[key]

    for _ in range(cfg.ga_steps):
        scores = evaluate(population)
        n_evals += len(population)
        prior_filter(scores, population)
        order = np.argsort(scores)[::-1]
        elite = [population[i] for i in order[: max(2, len(population) // 8)]]
        ranks = np.empty(len(population))
        ranks[order] = np.arange(len(population))
        weights = np.exp(-ranks / max(1.0, len(population) / 4.0))
        weights /= weights.sum()
        children = list(elite)
        while len(children) < len(population):
            i, j = rng.choice(len(population), size=2, p=weights)
            child = _scalar_crossover(population[int(i)], population[int(j)], space, rng)
            if rng.random() < cfg.mutation_prob:
                child = _scalar_mutate(child, space, rng)
            children.append(child)
        population = children
    scores = evaluate(population)
    n_evals += len(population)
    prior_filter(scores, population)
    return n_evals


# ----------------------------------------------------------------------
# Pre-batching scalar measurement path (vendored from the seed): one
# math-based simulation, one noise draw and one clock charge per
# program — the serial tail every tuning round used to pay.
# ----------------------------------------------------------------------
def _scalar_simulate(device, prog):
    d = device
    if prog.threads_per_block > d.max_threads_per_block:
        return math.inf, False
    if prog.smem_bytes > d.smem_per_block:
        return math.inf, False
    if prog.grid < 1 or prog.threads_per_block < 1:
        return math.inf, False

    threads = prog.threads_per_block
    reg_cap = max(
        1, min(d.max_regs_per_thread, d.regs_per_sm // max(1, threads))
    )
    warps = math.ceil(threads / d.warp_size)
    regs_per_thread = min(prog.reg_elems, reg_cap)
    limits = [
        d.max_blocks_per_sm,
        d.max_threads_per_sm // threads,
        d.regs_per_sm // max(1, regs_per_thread * threads),
    ]
    if prog.smem_bytes > 0:
        limits.append(d.smem_per_sm // max(1, prog.smem_bytes))
    blocks_per_sm = max(0, min(limits))
    if blocks_per_sm < 1:
        return math.inf, False
    occupancy = min(1.0, blocks_per_sm * warps / d.max_warps_per_sm)

    pen = compute_penalties(extract_symbols(prog), d, prog.workload.dtype_bytes)

    occ_factor = occupancy / (occupancy + 0.15) * 1.15
    inner_tile = prog.acc_regs / max(1, prog.vthreads)
    ilp = min(1.0, 0.60 + 0.10 * math.log2(1.0 + min(inner_tile, 128.0)))
    if prog.unroll >= 64:
        unroll_bonus = 1.0
    elif prog.unroll >= 16:
        unroll_bonus = 0.97
    else:
        unroll_bonus = 0.92
    spill = 1.0
    if prog.reg_elems > reg_cap:
        spill = (reg_cap / prog.reg_elems) ** 1.5
    extra_c = occ_factor * ilp * unroll_bonus * spill
    compute_time = prog.flops / (
        d.peak_for(prog.tensorcore) * max(pen.compute_product() * extra_c, 1e-6)
    )

    saturation = min(1.0, (occupancy + 0.15) / 0.60)
    vec_bonus = min(1.15, 1.0 + 0.05 * math.log2(max(1, prog.vector)))
    memory_time = prog.traffic_bytes / (
        d.peak_bw * max(pen.memory_product() * saturation * vec_bonus, 1e-6)
    )

    core = max(compute_time, memory_time) + 0.3 * min(compute_time, memory_time)
    w1, b1, w2 = _residual_net(d.name)
    hidden = np.tanh(w1 @ residual_features(prog) + b1)
    core *= math.exp(d.residual_scale * math.tanh(float(w2 @ hidden)))

    overhead = d.launch_overhead
    if prog.splitk > 1:
        reduce_bytes = (
            prog.workload.output_elems * prog.splitk * prog.workload.dtype_bytes
        )
        overhead += d.launch_overhead + reduce_bytes / (d.peak_bw * 0.6)
    return core + overhead, True


def scalar_measure(device, progs, clock, rng, noise_sigma=0.015):
    """The seed's MeasureRunner.measure: one program at a time."""
    charged = []
    results = []
    for prog in progs:
        latency, valid = _scalar_simulate(device, prog)
        if valid:
            latency *= math.exp(rng.normal(0.0, noise_sigma))
            charged.append(latency)
        results.append((latency, valid))
    clock.charge_measurement(charged)
    if len(progs) > len(charged):
        clock.charge(
            "measurement",
            (len(progs) - len(charged)) * clock.costs.measure_overhead,
        )
    return results


# ----------------------------------------------------------------------
def _time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        clear_caches()
        t0 = time.perf_counter()
        n = fn()
        best = min(best, (time.perf_counter() - t0) / max(1, n))
    return 1.0 / best  # candidates per second


def run(quick: bool) -> dict:
    cfg = (
        SearchConfig(population=128, ga_steps=3, spec_size=128)
        if quick
        else SearchConfig(population=512, ga_steps=4, spec_size=512)
    )
    repeats = 2 if quick else 3
    task = TuningTask.create(matmul(512, 512, 512), get_device("a100"))
    analyzer = SymbolBasedAnalyzer(task.device)
    explorer = LatentScheduleExplorer(analyzer, cfg)

    # --- draft stage ---
    def batched_draft():
        return explorer.explore(task.space, make_rng(0)).n_evals

    def scalar_draft():
        return scalar_explore(task.space, analyzer, cfg, make_rng(0))

    batched_draft()  # warm code paths before timing
    draft_batched = _time(batched_draft, repeats)
    draft_scalar = _time(scalar_draft, repeats)

    # --- verify stage ---
    model = PaCM()
    verify_configs = random_population(task.space, make_rng(1), cfg.spec_size)
    progs = [lower(task.space, c) for c in verify_configs[:32]]
    model.fit(
        progs,
        1e-3 * (1.0 + make_rng(2).random(len(progs))),
        [task.key] * len(progs),
        rng=make_rng(3),
    )

    def batched_verify():
        from repro.core.analyzer import is_launchable_mask

        lowered = lower_batch(task.space, verify_configs)
        kept = lowered.take(is_launchable_mask(lowered, task.device))
        model.predict_batch(kept)
        return len(kept)

    def scalar_verify():
        kept = [
            p
            for p in (lower(task.space, c) for c in verify_configs)
            if is_launchable(p, task.device)
        ]
        # per-program feature extraction, then one forward pass — the
        # scalar reference stays one object at a time now that
        # model.predict packs and encodes its whole list at once
        model._forward(np.concatenate([model.featurize([p]) for p in kept]))
        return len(kept)

    batched_verify()  # warm
    verify_batched = _time(batched_verify, repeats)
    verify_scalar = _time(scalar_verify, repeats)

    # --- measure stage ---
    n_measure = cfg.spec_size if quick else cfg.spec_size * 4
    measure_configs = random_population(task.space, make_rng(4), n_measure)
    measure_batch = lower_batch(task.space, measure_configs)
    measure_progs = [lower(task.space, c) for c in measure_configs]

    def batched_measure():
        runner = MeasureRunner(task.device, clock=SimClock(), rng=make_rng(5))
        runner.measure_batch(measure_batch)
        return len(measure_batch)

    def scalar_measure_loop():
        scalar_measure(task.device, measure_progs, SimClock(), make_rng(5))
        return len(measure_progs)

    batched_measure()  # warm
    measure_batched = _time(batched_measure, repeats)
    measure_scalar = _time(scalar_measure_loop, repeats)

    # --- lowering memo: cold round vs warm round over the same draft ---
    memo_configs = random_population(task.space, make_rng(6), cfg.spec_size)
    clear_caches()
    before = lowered_count()
    t0 = time.perf_counter()
    lower_batch_memo(task.space, memo_configs)
    cold_s = time.perf_counter() - t0
    cold_lowered = lowered_count() - before
    before = lowered_count()
    t0 = time.perf_counter()
    lower_batch_memo(task.space, memo_configs)
    warm_s = time.perf_counter() - t0
    warm_lowered = lowered_count() - before
    memo_stats = LOWERED_ROWS.stats()

    return {
        "quick": quick,
        "draft": {
            "batched_cps": round(draft_batched),
            "scalar_cps": round(draft_scalar),
            "speedup": round(draft_batched / draft_scalar, 2),
        },
        "verify": {
            "batched_cps": round(verify_batched),
            "scalar_cps": round(verify_scalar),
            "speedup": round(verify_batched / verify_scalar, 2),
        },
        "measure": {
            "batched_cps": round(measure_batched),
            "scalar_cps": round(measure_scalar),
            "speedup": round(measure_batched / measure_scalar, 2),
        },
        "memo": {
            "cold_cps": round(len(memo_configs) / cold_s),
            "warm_cps": round(len(memo_configs) / warm_s),
            "cold_lowered": cold_lowered,
            "warm_lowered": warm_lowered,
            "hits": memo_stats["hits"],
            "misses": memo_stats["misses"],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke scale")
    parser.add_argument(
        "--check", action="store_true", help="fail if below the stored floor"
    )
    parser.add_argument(
        "--update-floor", action="store_true", help="rewrite the floor file"
    )
    args = parser.parse_args(argv)

    results = run(quick=args.quick)
    print(json.dumps(results, indent=2))

    if args.update_floor:
        # Regression floor, deliberately below the measured numbers so
        # machine variance doesn't false-alarm.  Only the speedup
        # *ratios* are enforced (machine-independent); the absolute
        # rates are recorded for context.
        floor = {
            "draft_speedup_min": round(results["draft"]["speedup"] / 2, 2),
            "verify_speedup_min": round(results["verify"]["speedup"] / 2, 2),
            "measure_speedup_min": round(results["measure"]["speedup"] / 2, 2),
            "measured_draft_cps": results["draft"]["batched_cps"],
            "measured_verify_cps": results["verify"]["batched_cps"],
            "measured_measure_cps": results["measure"]["batched_cps"],
        }
        FLOOR_PATH.parent.mkdir(parents=True, exist_ok=True)
        FLOOR_PATH.write_text(json.dumps(floor, indent=2) + "\n")
        print(f"floor updated: {FLOOR_PATH}")

    if args.check:
        floor = json.loads(FLOOR_PATH.read_text())
        failures = []
        if results["draft"]["speedup"] < floor["draft_speedup_min"]:
            failures.append(
                f"draft speedup {results['draft']['speedup']}x < "
                f"floor {floor['draft_speedup_min']}x"
            )
        if results["verify"]["speedup"] < floor.get("verify_speedup_min", 1.0):
            failures.append(
                f"verify speedup {results['verify']['speedup']}x < "
                f"floor {floor['verify_speedup_min']}x"
            )
        if results["measure"]["speedup"] < floor.get("measure_speedup_min", 1.0):
            failures.append(
                f"measure speedup {results['measure']['speedup']}x < "
                f"floor {floor['measure_speedup_min']}x"
            )
        # The warm memo round must do strictly less lowering work than
        # the cold one (a row-count invariant, immune to timer noise).
        if results["memo"]["warm_lowered"] >= results["memo"]["cold_lowered"]:
            failures.append(
                f"warm memo round lowered {results['memo']['warm_lowered']} rows, "
                f"cold lowered {results['memo']['cold_lowered']} — memo ineffective"
            )
        if failures:
            print("THROUGHPUT REGRESSION:\n  " + "\n  ".join(failures))
            return 1
        print("throughput floor check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
