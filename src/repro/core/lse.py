"""Latent Schedule Explorer — the "Draft" stage (paper Algorithm 2).

LSE casts exploration as *hardware-fitness maximisation*: a genetic
algorithm over tile factorizations whose fitness is the Symbol-based
Analyzer score — no feature extraction, no learned-model inference.
The GA itself is the one loop Ansor runs too
(:func:`repro.schedule.evolve.explore`); LSE supplies the fitness and
the data.  Across ``ga_steps + 1`` scored generations (Ansor scores
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

The draft pays only for what the Symbol-based Analyzer reads: it lowers
the symbol columns only (no dataflow block is ever built for a drafted
row; :attr:`~repro.schedule.batch.CandidateBatch.blocks` builds them when
a feature encoder reads them), and the elites that lead a generation
carry the score they already have, so only the children are lowered and
scored.  ``n_evals`` still counts every generation whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SearchConfig
from repro.core.analyzer import SymbolBasedAnalyzer
from repro.schedule import evolve
from repro.schedule.batch import ConfigBatch, lower_batch
from repro.schedule.space import ScheduleSpace


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
        seeds: ConfigBatch | None = None,
    ) -> LSEResult:
        """Run Algorithm 2 and return the drafted candidate set S_spec.

        ``seeds`` (e.g. the best measured schedules so far) join the
        initial population together with a few mutations each, so
        later tuning rounds refine around known-good regions.
        """
        cfg = self.search
        population = evolve.seeded_population(space, rng, cfg.population, seeds, 3)
        spec = evolve.BestPool(cfg.spec_size)

        def fitness(population: ConfigBatch, carried: np.ndarray):
            # Algorithm 2 evaluates the whole population (CSA: one array
            # op chain); unlaunchable rows score -inf and still breed.
            # A row's score depends on that row alone, so the elites
            # leading the population keep theirs: only children are
            # lowered and scored (they are still counted, in n_evals).
            children = population.slice(len(carried), len(population))
            scores = np.concatenate(
                [carried, self.analyzer.score_batch(lower_batch(space, children))]
            )
            return population, scores, np.argsort(scores)[::-1]

        # the extra generation scores the last offspring too
        n_evals = evolve.explore(
            space, rng, population, fitness, cfg.ga_steps + 1, len(population), cfg, spec
        )
        return LSEResult(*spec.ranked(), n_evals)
