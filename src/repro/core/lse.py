"""Latent Schedule Explorer — the "Draft" stage (paper Algorithm 2).

LSE casts exploration as *hardware-fitness maximisation*: a genetic
algorithm over tile factorizations whose fitness is the Symbol-based
Analyzer score — no feature extraction, no learned-model inference.
Across ``n_steps`` generations it maintains

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

from dataclasses import dataclass, field

import numpy as np

from repro.config import SearchConfig
from repro.core.analyzer import SymbolBasedAnalyzer
from repro.schedule.batch import ConfigBatch, lower_batch
from repro.schedule.mutate import crossover_pairs, mutate_batch
from repro.schedule.sampler import random_batch
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


@dataclass
class _SpecPool:
    """S_spec as parallel arrays: candidates + scores + identity keys."""

    batch: ConfigBatch | None = None
    scores: np.ndarray = field(default_factory=lambda: np.empty(0))

    def merge(self, population: ConfigBatch, scores: np.ndarray, cap: int) -> None:
        """PriorFilter: fold a scored generation in, keep the best ``cap``.

        Unlaunchable candidates (score ``-inf``) are dropped; duplicates
        keep their first score (scoring is deterministic, so first == max).
        """
        keep = np.isfinite(scores)
        if not keep.any() and self.batch is None:
            return
        fresh = population.take(keep)
        fresh_scores = scores[keep]
        if self.batch is None:
            merged, merged_scores = fresh, fresh_scores
        else:
            merged = ConfigBatch.concat([self.batch, fresh])
            merged_scores = np.concatenate([self.scores, fresh_scores])
        _, first = np.unique(merged.row_ids(), return_index=True)
        first = np.sort(first)  # stable: spec entries precede rediscoveries
        merged, merged_scores = merged.take(first), merged_scores[first]
        if len(merged) > cap:
            top = np.argsort(-merged_scores, kind="stable")[:cap]
            top = np.sort(top)  # keep insertion order between merges
            merged, merged_scores = merged.take(top), merged_scores[top]
        self.batch, self.scores = merged, merged_scores


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
        population = random_batch(space, rng, cfg.population)
        if seeds:
            seed_batch = ConfigBatch.from_configs(space, seeds)
            mutations = [mutate_batch(seed_batch, space, rng) for _ in range(3)]
            population = ConfigBatch.concat([population, seed_batch, *mutations])
        spec = _SpecPool()
        n_evals = 0

        for _ in range(cfg.ga_steps):
            scores = self._evaluate(space, population)
            n_evals += len(population)
            spec.merge(population, scores, cfg.spec_size)
            population = self._next_generation(space, population, scores, rng)

        # Evaluate the final generation too (Algorithm 2 evaluates at
        # the top of each step; one last merge keeps its best offspring).
        scores = self._evaluate(space, population)
        n_evals += len(population)
        spec.merge(population, scores, cfg.spec_size)

        if spec.batch is None:  # nothing launchable was ever drafted
            return LSEResult(population.take(np.empty(0, np.int64)), spec.scores, n_evals)
        order = np.argsort(-spec.scores, kind="stable")
        return LSEResult(spec.batch.take(order), spec.scores[order], n_evals)

    # ------------------------------------------------------------------
    def _evaluate(self, space: ScheduleSpace, population: ConfigBatch) -> np.ndarray:
        """CSA: draft-model fitness of the population (one array op chain)."""
        return self.analyzer.score_batch(lower_batch(space, population))

    def _next_generation(
        self,
        space: ScheduleSpace,
        population: ConfigBatch,
        scores: np.ndarray,
        rng: np.random.Generator,
    ) -> ConfigBatch:
        """SchMutation: fitness-weighted selection + crossover + mutation."""
        cfg = self.search
        n = len(population)
        order = np.argsort(scores)[::-1]
        elite_n = max(2, n // 8)
        elite = population.take(order[:elite_n])

        # Softmax selection weights over ranks (robust to score scale).
        ranks = np.empty(n)
        ranks[order] = np.arange(n)
        weights = np.exp(-ranks / max(1.0, n / 4.0))
        weights /= weights.sum()

        n_children = n - elite_n
        if n_children <= 0:
            return elite
        parents = rng.choice(n, size=(n_children, 2), p=weights)
        children = crossover_pairs(
            population, parents[:, 0], parents[:, 1], space, rng
        )
        mutate_mask = rng.random(n_children) < cfg.mutation_prob
        if mutate_mask.any():
            mutated = mutate_batch(children.take(mutate_mask), space, rng)
            keep = children.take(~mutate_mask)
            # Reassemble in child order so generation layout stays stable.
            merged = ConfigBatch.concat([keep, mutated])
            restore = np.empty(n_children, dtype=np.int64)
            restore[np.flatnonzero(~mutate_mask)] = np.arange(len(keep))
            restore[np.flatnonzero(mutate_mask)] = len(keep) + np.arange(len(mutated))
            children = merged.take(restore)
        return ConfigBatch.concat([elite, children])
