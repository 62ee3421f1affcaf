"""Latent Schedule Explorer — the "Draft" stage (paper Algorithm 2).

LSE casts exploration as *hardware-fitness maximisation*: a genetic
algorithm over tile factorizations whose fitness is the Symbol-based
Analyzer score — no feature extraction, no learned-model inference.
The GA itself is the one Ansor runs (:mod:`repro.schedule.evolve`).
Across ``ga_steps + 1`` scored generations (Ansor's loop scores
``ga_steps``) it maintains

* the working population ``S_x`` (mutated/crossed each step), and
* ``S_spec``: the best-``spec_size`` schedules ever seen (PriorFilter).

The output S_spec (paper default 512) is the drafted candidate set the
learned cost model later verifies.

The whole loop is batched: the population lives as a
:class:`~repro.schedule.batch.ConfigBatch` factor tensor, one
generation is ``lower_batch`` + ``score_batch`` + array-level
selection/crossover/mutation, and S_spec is maintained — and handed to
the verify stage — as parallel arrays; the draft never materializes a
:class:`~repro.schedule.space.ScheduleConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SearchConfig
from repro.core.analyzer import SymbolBasedAnalyzer
from repro.schedule.batch import ConfigBatch, lower_batch
from repro.schedule.evolve import BestPool, next_generation, seeded_population
from repro.schedule.space import ScheduleConfig, ScheduleSpace


@dataclass
class LSEResult:
    """Outcome of one LSE run.

    ``spec`` is the drafted set as arrays, ranked best-first by
    draft-model fitness, and ``scores`` the fitness of each of its
    rows; ``n_evals`` counts Symbol-based-Analyzer evaluations (for
    time accounting).
    """

    spec: ConfigBatch
    scores: np.ndarray
    n_evals: int = 0


class LatentScheduleExplorer:
    """GA over the schedule space guided by the draft model."""

    def __init__(
        self,
        analyzer: SymbolBasedAnalyzer,
        search: SearchConfig | None = None,
    ) -> None:
        self.analyzer = analyzer
        self.search = search or SearchConfig()

    # ------------------------------------------------------------------
    def explore(
        self,
        space: ScheduleSpace,
        rng: np.random.Generator,
        seeds: list[ScheduleConfig] | None = None,
    ) -> LSEResult:
        """Run Algorithm 2 and return the drafted candidate set S_spec.

        ``seeds`` (e.g. the best measured schedules so far) join the
        initial population together with a few mutations each, so
        later tuning rounds refine around known-good regions.
        """
        cfg = self.search
        population = seeded_population(space, rng, cfg.population, seeds or [], 3)
        spec = BestPool(cfg.spec_size)
        n_evals = 0

        for step in range(cfg.ga_steps + 1):
            # Algorithm 2 evaluates (CSA: one array op chain) at the top
            # of each step; the extra pass keeps the last offspring too.
            scores = self.analyzer.score_batch(lower_batch(space, population))
            n_evals += len(population)
            spec.merge(population, scores)
            if step < cfg.ga_steps:
                best_first = np.argsort(scores)[::-1]
                population = next_generation(
                    space, population, best_first, len(population), cfg.mutation_prob, rng
                )
        return LSEResult(*spec.ranked(), n_evals)
