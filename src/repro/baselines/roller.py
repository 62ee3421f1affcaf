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
from repro.hardware.library import aligned_mask
from repro.hardware.measure import MeasureRunner
from repro.ir.ops import Workload
from repro.ir.partition import SubgraphTask
from repro.rng import make_rng, rng_for
from repro.schedule.batch import CandidateBatch, lower_batch
from repro.schedule.sampler import random_config
from repro.schedule.sketch import generate_sketch
from repro.timemodel import SimClock


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

        batch = self._enumerate(space, rng, self.enumeration)
        # Roller's rules: warp-aligned threads, power-of-two tiles
        aligned = is_launchable_mask(batch, self.device) & aligned_mask(batch, self.device)
        pool = batch.take(aligned)
        pool = pool.take(pool.configs.first_rows())
        if not len(pool):  # fall back: drop alignment if rules match nothing
            batch = self._enumerate(space, rng, self.trials * 2)
            pool = batch.take(is_launchable_mask(batch, self.device))
        clock.charge_sa(len(pool))  # rule-model scoring cost
        latency = self.analyzer.latency_batch(pool)
        top = np.argsort(latency, kind="stable")[: self.trials]
        measured = runner.measure_batch(pool.take(top))
        return float(measured.latency[measured.valid].min(initial=math.inf)), clock

    @staticmethod
    def _enumerate(space, rng, n: int) -> CandidateBatch:
        """``n`` random schedules lowered as one batch."""
        return lower_batch(space, [random_config(space, rng) for _ in range(n)])

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
