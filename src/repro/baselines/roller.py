"""Roller baseline: rule-based rTile enumeration (Zhu et al., OSDI'22).

Roller skips learned cost models entirely: it enumerates *aligned*
rTiles (tile shapes that match the hardware's warp, transaction and
memory-bank granularities), scores them with an analytical micro-perf
model, and measures only a handful (the paper uses 50 trials per
subgraph).  It is very fast but "easily misses optimal solutions"
(paper Section 6.1, Table 6) because good-but-unaligned schedules are
outside its rule set and its model misses device-specific behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.analyzer import SymbolBasedAnalyzer, is_launchable_mask
from repro.hardware.device import DeviceSpec
from repro.hardware.measure import MeasureRunner
from repro.ir.ops import Workload
from repro.ir.partition import SubgraphTask
from repro.rng import make_rng, rng_for
from repro.schedule.batch import CandidateBatch, lower_batch
from repro.schedule.lower import LoweredProgram
from repro.schedule.sampler import random_config
from repro.schedule.sketch import generate_sketch
from repro.timemodel import SimClock


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _aligned(prog: LoweredProgram, device: DeviceSpec) -> bool:
    """Roller's alignment rules: warp-aligned threads, pow2 tiles."""
    if prog.threads_per_block % device.warp_size != 0:
        return False
    if not 64 <= prog.threads_per_block <= 512:
        return False
    # the outermost factor may be anything (it absorbs an odd-sized axis
    # extent); every inner tile factor must be a power of two
    return all(
        _is_power_of_two(f) for _, factors in prog.config.tiles for f in factors[1:]
    )


@dataclass
class RollerResult:
    """Outcome of Roller on one subgraph set."""

    latency: float  # end-to-end weighted latency (seconds)
    per_task: dict[str, float]
    clock: SimClock


class RollerTuner:
    """Aligned-tile enumeration + analytical scoring + tiny measurement."""

    def __init__(
        self,
        device: DeviceSpec,
        trials: int = 50,
        enumeration: int = 2048,
        seed: int = 0,
    ) -> None:
        self.device = device
        self.trials = trials
        self.enumeration = enumeration
        self.seed = seed
        self.analyzer = SymbolBasedAnalyzer(device)

    # ------------------------------------------------------------------
    def tune_workload(
        self, workload: Workload, clock: SimClock | None = None
    ) -> tuple[float, SimClock]:
        """Tune one workload; returns (best latency, clock)."""
        clock = clock or SimClock()
        runner = MeasureRunner(self.device, clock=clock, rng=make_rng(self.seed))
        space = generate_sketch(workload)
        rng = rng_for("roller", self.seed, workload.key)

        candidates: dict[str, LoweredProgram] = {}
        for prog in self._launchable(space, rng, self.enumeration):
            if _aligned(prog, self.device):
                candidates[prog.config.key] = prog
        pool = list(candidates.values())
        if not pool:  # fall back: drop alignment if rules match nothing
            pool = self._launchable(space, rng, self.trials * 2)
        clock.charge_sa(len(pool))  # rule-model scoring cost
        latency = self.analyzer.latency_batch(CandidateBatch.from_programs(pool))
        top = [pool[i] for i in np.argsort(latency, kind="stable")[: self.trials]]
        results = runner.measure(top)
        best = min(
            (r.latency for r in results if r.valid), default=math.inf
        )
        return best, clock

    def _launchable(self, space, rng, n: int) -> list[LoweredProgram]:
        """``n`` random schedules lowered as one batch; the launchable ones."""
        batch = lower_batch(space, [random_config(space, rng) for _ in range(n)])
        keep = np.flatnonzero(is_launchable_mask(batch, self.device))
        return [batch.program(int(i)) for i in keep]

    def tune_subgraphs(self, subgraphs: list[SubgraphTask]) -> RollerResult:
        """Tune every tiled subgraph with ``trials`` measurements each."""
        clock = SimClock()
        per_task: dict[str, float] = {}
        total = 0.0
        for sub in subgraphs:
            if not sub.workload.is_tiled:
                continue
            best, _ = self.tune_workload(sub.workload, clock=clock)
            per_task[sub.workload.key] = best
            if math.isfinite(best):
                total += best * sub.weight
        return RollerResult(latency=total, per_task=per_task, clock=clock)
