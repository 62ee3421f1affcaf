"""Felix baseline: gradient descent over a relaxed tile space (ASPLOS'24).

Felix rewrites the schedule space into a differentiable surrogate and
searches by gradient descent.  We model its essence: *local* steepest
descent in tile-exponent space (moving prime factors between adjacent
tiling levels) under an analytical objective, restarted from a few
random points, measuring the best descended candidates each round.
Local descent is fast but — unlike global evolutionary search — gets
trapped near its starts, which is why Felix trails Pruner (Figure 8).

Felix's feature extraction requires *regular* shapes; operators with
irregular extents or special structure fail (the paper's X entries).
:meth:`supports` encodes that: every loop extent must be divisible by 4
after removing odd "shape remainder" dims, and depthwise / transposed
convs are unsupported.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.analyzer import SymbolBasedAnalyzer
from repro.errors import ScheduleError, TuningFailure
from repro.hardware.device import DeviceSpec
from repro.hardware.measure import MeasureRunner
from repro.ir.ops import Workload
from repro.ir.partition import SubgraphTask
from repro.rng import make_rng
from repro.schedule.batch import lower_batch
from repro.schedule.mutate import _move_factor  # local (gradient-like) move
from repro.schedule.sampler import random_config
from repro.schedule.sketch import generate_sketch
from repro.schedule.space import ScheduleConfig
from repro.search.records import CurvePoint, RecordLog
from repro.timemodel import SimClock


class FelixTuner:
    """Local gradient-style descent + measurement of descended optima."""

    def __init__(
        self,
        device: DeviceSpec,
        restarts: int = 8,
        descent_steps: int = 30,
        measure_per_round: int = 10,
        seed: int = 0,
    ) -> None:
        self.device = device
        self.restarts = restarts
        self.descent_steps = descent_steps
        self.measure_per_round = measure_per_round
        self.seed = seed
        self.analyzer = SymbolBasedAnalyzer(device)

    @staticmethod
    def supports(workload: Workload) -> bool:
        """Regular-shape requirement of Felix's feature extraction."""
        if workload.tag in ("depthwise", "conv2d_transpose"):
            return False
        for dim in workload.spatial + workload.reduction:
            if dim.extent >= 8 and dim.extent % 4 != 0:
                return False
        return True

    # ------------------------------------------------------------------
    def _descend(self, space, config: ScheduleConfig, rng) -> ScheduleConfig:
        """Steepest descent via prime-factor moves between tile levels."""
        current = config
        current_cost = self._costs(space, [current])[0]
        for _ in range(self.descent_steps):
            moves = []
            for axis, factors in current.tiles:
                for _try in range(3):
                    moved = current.with_tile(axis, _move_factor(rng, factors))
                    try:
                        space.validate(moved)
                    except ScheduleError:  # off-space move: try another
                        continue
                    moves.append(moved)
            if not moves:
                break
            costs = self._costs(space, moves)
            best = int(np.argmin(costs))  # the first of equally cheap moves
            if not costs[best] < current_cost:
                break  # local optimum
            current, current_cost = moves[best], costs[best]
        return current

    def _costs(self, space, configs: list[ScheduleConfig]) -> np.ndarray:
        """Draft-model latency of each config, inf where unlaunchable."""
        return -self.analyzer.score_batch(lower_batch(space, configs))

    # ------------------------------------------------------------------
    def tune(self, subgraphs: list[SubgraphTask], rounds: int):
        """Tune supported subgraphs; raises TuningFailure otherwise."""
        from repro.search.tuner import TuneResult  # local import, no cycle

        tiled = [s for s in subgraphs if s.workload.is_tiled]
        for sub in tiled:
            if not self.supports(sub.workload):
                raise TuningFailure(
                    f"Felix cannot extract features for {sub.workload.name}"
                )
        clock = SimClock()
        runner = MeasureRunner(self.device, clock=clock, rng=make_rng(self.seed))
        rng = make_rng(self.seed + 1)
        records = RecordLog()
        curve: list[CurvePoint] = []
        spaces = {s.workload.key: generate_sketch(s.workload) for s in tiled}

        for round_index in range(rounds):
            sub = tiled[round_index % len(tiled)]
            space = spaces[sub.workload.key]
            optima = []
            for _ in range(self.restarts):
                start = random_config(space, rng)
                descended = self._descend(space, start, rng)
                optima.append(descended)
                clock.charge_sa(self.descent_steps * 6)
            batch = lower_batch(space, optima)
            costs = -self.analyzer.score_batch(batch)
            best = np.argsort(costs, kind="stable")[: self.measure_per_round]
            picked = best[costs[best] < math.inf]  # launchable
            if len(picked):
                res = runner.measure_batch(batch.take(picked))
                records.add(sub.workload.key, res.batch, res.latency, clock.total, round_index)
            total = 0.0
            complete = True
            for s in tiled:
                best = records.best_latency(s.workload.key)
                if math.isfinite(best):
                    total += best * s.weight
                else:
                    complete = False
            curve.append(
                CurvePoint(
                    sim_time=clock.total,
                    trials=len(records),
                    latency=total if complete else math.inf,
                )
            )
        return TuneResult(
            curve=curve,
            records=records,
            clock=clock,
            best={s.workload.key: records.best_latency(s.workload.key) for s in tiled},
            weights={s.workload.key: s.weight for s in tiled},
        )
