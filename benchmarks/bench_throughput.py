"""Candidate-pipeline throughput: candidates/second through each stage.

Times the three batched stages of Pruner's draft-then-verify pipeline
on one matmul task (a100), in absolute candidates per second:

* **draft** — a full Latent-Schedule-Explorer run
  (``LatentScheduleExplorer.explore``: GA generations of lowering +
  Symbol-based-Analyzer scoring), per candidate evaluated;
* **verify** — learned-model scoring of a drafted set (``lower_batch`` +
  launchability mask + ``PaCM.predict_batch``), per candidate kept;
* **measure** — simulating / noising / clock-charging a measurement
  batch (``MeasureRunner.measure_batch``), per candidate measured.

Usage::

    python benchmarks/bench_throughput.py           # paper-ish scale
    python benchmarks/bench_throughput.py --quick   # CI smoke scale
    python benchmarks/bench_throughput.py --quick --check
    python benchmarks/bench_throughput.py --quick --update-floor

``--check`` compares against the absolute floors checked into
``benchmarks/results/throughput_floor.json`` and exits non-zero when a
stage runs slower than its floor (CI smoke job).  The floors are one
third of what ``--quick`` measured on the 2-core reference box, so a
slower CI machine or a noisy neighbour does not false-alarm while a
stage falling back to per-candidate Python (~10x) still does.  What the
stages compute is pinned elsewhere, by the frozen goldens under
``tests/fixtures`` — this script only times them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cache import clear_caches  # noqa: E402
from repro.config import SearchConfig  # noqa: E402
from repro.core.analyzer import SymbolBasedAnalyzer, is_launchable_mask  # noqa: E402
from repro.core.lse import LatentScheduleExplorer  # noqa: E402
from repro.costmodel import PaCM  # noqa: E402
from repro.hardware.device import get_device  # noqa: E402
from repro.hardware.measure import MeasureRunner  # noqa: E402
from repro.ir.ops import matmul  # noqa: E402
from repro.rng import make_rng  # noqa: E402
from repro.schedule.batch import lower_batch  # noqa: E402
from repro.schedule.lower import lower  # noqa: E402
from repro.schedule.sampler import random_population  # noqa: E402
from repro.search.task import TuningTask  # noqa: E402
from repro.timemodel import SimClock  # noqa: E402

FLOOR_PATH = Path(__file__).resolve().parent / "results" / "throughput_floor.json"
STAGES = ("draft", "verify", "measure")
#: a floor is the measured rate divided by this
FLOOR_MARGIN = 3


def _time(fn, repeats):
    """Best-of-``repeats`` candidates/second of ``fn`` (returns its count)."""
    fn()  # warm code paths before timing
    best = float("inf")
    for _ in range(repeats):
        clear_caches()
        t0 = time.perf_counter()
        n = fn()
        best = min(best, (time.perf_counter() - t0) / max(1, n))
    return round(1.0 / best)


def run(quick: bool) -> dict:
    cfg = (
        SearchConfig(population=128, ga_steps=3, spec_size=128)
        if quick
        else SearchConfig(population=512, ga_steps=4, spec_size=512)
    )
    repeats = 2 if quick else 3
    task = TuningTask.create(matmul(512, 512, 512), get_device("a100"))
    explorer = LatentScheduleExplorer(SymbolBasedAnalyzer(task.device), cfg)

    def draft():
        return explorer.explore(task.space, make_rng(0)).n_evals

    model = PaCM()
    verify_configs = random_population(task.space, make_rng(1), cfg.spec_size)
    progs = [lower(task.space, c) for c in verify_configs[:32]]
    model.fit(
        progs,
        1e-3 * (1.0 + make_rng(2).random(len(progs))),
        [task.key] * len(progs),
        rng=make_rng(3),
    )

    def verify():
        lowered = lower_batch(task.space, verify_configs)
        kept = lowered.take(is_launchable_mask(lowered, task.device))
        model.predict_batch(kept)
        return len(kept)

    n_measure = cfg.spec_size if quick else cfg.spec_size * 4
    measure_batch = lower_batch(
        task.space, random_population(task.space, make_rng(4), n_measure)
    )

    def measure():
        runner = MeasureRunner(task.device, clock=SimClock(), rng=make_rng(5))
        runner.measure_batch(measure_batch)
        return len(measure_batch)

    return {
        "quick": quick,
        "draft_cps": _time(draft, repeats),
        "verify_cps": _time(verify, repeats),
        "measure_cps": _time(measure, repeats),
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
        floor = {
            f"{stage}_cps_min": results[f"{stage}_cps"] // FLOOR_MARGIN
            for stage in STAGES
        } | {f"measured_{stage}_cps": results[f"{stage}_cps"] for stage in STAGES}
        FLOOR_PATH.parent.mkdir(parents=True, exist_ok=True)
        FLOOR_PATH.write_text(json.dumps(floor, indent=2) + "\n")
        print(f"floor updated: {FLOOR_PATH}")

    if args.check:
        floor = json.loads(FLOOR_PATH.read_text())
        failures = [
            f"{stage}: {results[f'{stage}_cps']} candidates/s < "
            f"floor {floor[f'{stage}_cps_min']}"
            for stage in STAGES
            if results[f"{stage}_cps"] < floor[f"{stage}_cps_min"]
        ]
        if failures:
            print("THROUGHPUT REGRESSION:\n  " + "\n  ".join(failures))
            return 1
        print("throughput floor check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
