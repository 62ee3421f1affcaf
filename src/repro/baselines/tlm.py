"""TLM baseline: tensor language model as schedule generator (OSDI'24).

TLM pre-trains a generative model over schedule token sequences and
samples candidate programs directly, skipping most of the search.  We
model it as per-subgraph empirical distributions over tile factors,
estimated from strong schedules found offline: sampling is excellent on
subgraphs seen during pre-training and *impossible* on unseen ones —
"when we applied it to a model that didn't appear in the training
phase, it failed to tune" (paper Section 6.1, the X entries of Fig. 8).
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from repro.core.analyzer import SymbolBasedAnalyzer, is_launchable
from repro.errors import ReproError, TuningFailure
from repro.hardware.device import DeviceSpec
from repro.hardware.measure import MeasureRunner
from repro.ir.ops import Workload
from repro.ir.partition import SubgraphTask
from repro.rng import make_rng, rng_for
from repro.schedule.batch import lower_batch
from repro.schedule.lower import lower
from repro.schedule.sampler import random_config
from repro.schedule.sketch import generate_sketch
from repro.schedule.space import ScheduleConfig
from repro.timemodel import SimClock


class TLMTuner:
    """Generative sampling from per-subgraph factor distributions."""

    def __init__(
        self,
        device: DeviceSpec,
        corpus_size: int = 1024,
        top_corpus: int = 64,
        seed: int = 0,
    ) -> None:
        self.device = device
        self.corpus_size = corpus_size
        self.top_corpus = top_corpus
        self.seed = seed
        self.analyzer = SymbolBasedAnalyzer(device)
        # workload key -> per-axis list of observed factor tuples
        self._distributions: dict[str, dict[str, list[tuple[int, ...]]]] = {}

    # ------------------------------------------------------------------
    def pretrain(self, corpus: list[SubgraphTask]) -> None:
        """'Language-model pre-training': learn factor distributions from
        strong schedules of the corpus subgraphs."""
        for sub in corpus:
            wl = sub.workload
            if not wl.is_tiled or wl.key in self._distributions:
                continue
            space = generate_sketch(wl)
            rng = rng_for("tlm-pretrain", wl.key)
            configs = [random_config(space, rng) for _ in range(self.corpus_size)]
            scores = self.analyzer.score_batch(lower_batch(space, configs))
            # launchable samples, lowest draft latency first (ties in draw order)
            strongest = [
                i for i in np.argsort(-scores, kind="stable") if scores[i] > -math.inf
            ]
            dist: dict[str, list[tuple[int, ...]]] = defaultdict(list)
            for i in strongest[: self.top_corpus]:
                for axis, factors in configs[i].tiles:
                    dist[axis].append(factors)
            self._distributions[wl.key] = dict(dist)

    def supports(self, workload: Workload) -> bool:
        """TLM can only generate schedules for pre-training subgraphs."""
        return workload.key in self._distributions

    # ------------------------------------------------------------------
    def _sample(self, workload: Workload, rng: np.random.Generator) -> ScheduleConfig:
        dist = self._distributions[workload.key]
        tile_map = {}
        for axis, choices in dist.items():
            tile_map[axis] = choices[int(rng.integers(len(choices)))]
        unroll = int(rng.choice((0, 16, 64, 512)))
        vector = int(rng.choice((1, 2, 4)))
        return ScheduleConfig.from_map(tile_map, unroll=unroll, vector=vector)

    def tune_workload(
        self, workload: Workload, trials: int = 50, clock: SimClock | None = None
    ) -> tuple[float, SimClock]:
        """Sample + measure; raises TuningFailure on unseen subgraphs."""
        if not self.supports(workload):
            raise TuningFailure(
                f"TLM was not pre-trained on subgraph {workload.name}"
            )
        clock = clock or SimClock()
        runner = MeasureRunner(self.device, clock=clock, rng=make_rng(self.seed))
        space = generate_sketch(workload)
        rng = make_rng(self.seed + 1)
        batch = []
        seen: set[str] = set()
        attempts = 0
        while len(batch) < trials and attempts < trials * 10:
            attempts += 1
            cfg = self._sample(workload, rng)
            if cfg.key in seen:
                continue
            try:
                prog = lower(space, cfg)
            except ReproError:  # unlowerable sample: skip, keep drawing
                continue
            if is_launchable(prog, self.device):
                seen.add(cfg.key)
                batch.append(prog)
        results = runner.measure(batch)
        best = min((r.latency for r in results if r.valid), default=math.inf)
        return best, clock

    def tune_subgraphs(
        self, subgraphs: list[SubgraphTask], trials_per_task: int = 50
    ) -> tuple[float, SimClock]:
        """End-to-end latency over tiled subgraphs (weighted)."""
        clock = SimClock()
        total = 0.0
        for sub in subgraphs:
            if not sub.workload.is_tiled:
                continue
            best, _ = self.tune_workload(sub.workload, trials_per_task, clock)
            if math.isfinite(best):
                total += best * sub.weight
        return total, clock
