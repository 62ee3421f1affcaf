"""The evolutionary search both explorers run: one loop, any fitness.

Pruner's draft stage (Algorithm 2) is Ansor's evolutionary search with
the Symbol-based Analyzer in place of the learned model, so the search
exists once, here — seeded population, generation step, best-first pool
and the loop over generations, :func:`explore` — and sees scores only
through the caller's fitness.  What differs between the callers is data
at the call site:
:class:`~repro.core.lse.LatentScheduleExplorer` scores whole populations
(unlaunchable rows at ``-inf``) over ``ga_steps + 1`` generations, like
TVM's ``num_iters + 1``, into a capped pool of configs;
:class:`~repro.search.policy.AnsorPolicy` scores the launchable rows of
``ga_steps`` generations (one fewer: ROADMAP item 2), charging the
clock per generation, into an uncapped pool of lowered rows.

The elites leading a generation carry their scores into the fitness
call: LSE's row-wise PSA score reuses them and lowers and scores only
the children; Ansor's model fitness scores them again, since a
predicted score depends on the batch it is predicted in.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.config import SearchConfig
from repro.schedule.batch import CandidateBatch, ConfigBatch
from repro.schedule.mutate import crossover_pairs, mutate_batch
from repro.schedule.sampler import random_batch
from repro.schedule.space import ScheduleSpace


def seeded_population(
    space: ScheduleSpace,
    rng: np.random.Generator,
    size: int,
    seeds: ConfigBatch | None,
    max_mutations: int,
) -> ConfigBatch:
    """Initial GA population: random + mutations of measured bests.

    Laid out ``[random | seeds | mutated seeds ...]`` and capped at
    ``size + 4 * len(seeds)`` rows: the random population, every seed
    once and three mutations of each.  A space too small to give
    ``size`` distinct random rows leaves room under the cap that
    further mutations fill, up to ``max_mutations`` batches; only
    batches of which a row is kept are drawn.
    """
    population = random_batch(space, rng, size)
    if not seeds:
        return population
    cap = size + len(seeds) * 4
    room = cap - len(population) - len(seeds)
    batches = min(-(-room // len(seeds)), max_mutations)
    mutated = [mutate_batch(seeds, space, rng) for _ in range(batches)]
    return ConfigBatch.concat([population, seeds, *mutated]).slice(0, cap)


def next_generation(
    space: ScheduleSpace,
    population: ConfigBatch,
    order: np.ndarray,
    size: int,
    mutation_prob: float,
    rng: np.random.Generator,
) -> ConfigBatch:
    """SchMutation: ``size`` rows bred from ``population``.

    ``order`` lists the rows best first (the caller's fitness and
    tie-break).  The best :func:`elite_count` survive as elites and lead
    the generation; the rest are crossed from parents drawn with softmax
    weights over *ranks* (robust to score scale) and mutated with
    ``mutation_prob``.  The parents are drawn as ``rng.choice(n, p=)``
    draws them, written out (ROADMAP item 3c) without its per-call
    checks of ``p``: a CDF, one uniform per parent, a right-sided search.
    """
    n = len(population)
    elite = population.take(order[: elite_count(n)])
    n_children = size - len(elite)
    if n_children <= 0:
        return elite
    ranks = np.empty(n)
    ranks[order] = np.arange(n)
    weights = np.exp(-ranks / max(1.0, n / 4.0))
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    parents = cdf.searchsorted(rng.random((n_children, 2)), side="right")
    children = crossover_pairs(population, parents[:, 0], parents[:, 1], space, rng)
    mutate = np.flatnonzero(rng.random(n_children) < mutation_prob)
    if len(mutate):
        mutated = mutate_batch(children.take(mutate), space, rng)
        # the children's arrays are crossover's fresh output: write the
        # mutated rows back in place, so the generation's layout stays stable
        children.factors[mutate] = mutated.factors
        children.unroll[mutate] = mutated.unroll
        children.vector[mutate] = mutated.vector
        children.splitk[mutate] = mutated.splitk
    return ConfigBatch.concat([elite, children])


def elite_count(n: int) -> int:
    """Rows of an ``n``-row scored generation that survive unchanged."""
    return max(2, n // 8)


def explore(
    space: ScheduleSpace,
    rng: np.random.Generator,
    population: ConfigBatch,
    fitness: Callable[[ConfigBatch, np.ndarray], tuple],
    generations: int,
    size: int,
    search: SearchConfig,
    pool: BestPool,
) -> int:
    """Evolve ``population`` for ``generations`` scored generations into
    ``pool``; return how many rows were scored.

    ``fitness(population, carried)`` returns ``(rows, scores,
    best_first)``: the rows the pool keeps (the population itself, or
    its lowered launchable rows), their scores, and ``rows``' indices
    best first — the parents' order, so the tie-break is the caller's.
    ``carried`` holds the scores the fitness gave the elites that lead
    ``population`` (none in the first generation): a fitness that
    scores each row on its own reuses them and scores only the
    children; one whose score depends on the batch scores every row.
    Each generation is scored and merged into the pool; each of the
    first ``search.ga_steps`` then breeds ``size`` rows from the kept
    rows, or, when the fitness kept none, draws ``size`` random ones.
    Every generation counts whole, elites included, in the rows scored.
    """
    n_scored = 0
    carried = np.empty(0)
    for generation in range(generations):
        rows, scores, best_first = fitness(population, carried)
        n_scored += len(population)
        pool.merge(rows, scores)
        if generation >= search.ga_steps:
            break
        if len(rows):
            population = next_generation(
                space, _configs(rows), best_first, size, search.mutation_prob, rng
            )
            carried = scores[best_first[: elite_count(len(rows))]]
        else:
            population = random_batch(space, rng, size)
            carried = np.empty(0)
    return n_scored


def _configs(batch: ConfigBatch | CandidateBatch) -> ConfigBatch:
    return batch.configs if isinstance(batch, CandidateBatch) else batch


class BestPool:
    """PriorFilter: the distinct finite-scored candidates merged so far,
    as parallel arrays — all of them, or with ``cap`` the best ``cap``
    after every merge (S_spec).

    A pool holds the kind of batch it is given: config rows (LSE hands
    S_spec on as configs) or lowered rows (Ansor's pool, whose picks are
    then taken from it, not lowered a second time).
    """

    def __init__(self, cap: int | None = None) -> None:
        self.cap = cap
        self._parts: list[tuple[ConfigBatch | CandidateBatch, np.ndarray]] = []
        self._unsettled = False

    def __bool__(self) -> bool:
        return any(len(scores) for _, scores in self._parts)

    def merge(
        self, population: ConfigBatch | CandidateBatch, scores: np.ndarray
    ) -> None:
        """Fold a scored generation in (unlaunchable rows, ``-inf``, never enter)."""
        keep = np.isfinite(scores)
        if not keep.all():  # batches are never modified: keep a whole one as is
            population, scores = population.take(keep), scores[keep]
        self._parts.append((population, scores))
        self._unsettled = True
        if self.cap is not None:  # what the cap drops depends on when it is applied
            self.settled()

    def settled(self) -> tuple[ConfigBatch | CandidateBatch, np.ndarray]:
        """The pool in insertion order: duplicates keep their first
        position and score (scoring is deterministic, so first == any)."""
        if self._unsettled:
            batch = type(self._parts[0][0]).concat([batch for batch, _ in self._parts])
            scores = np.concatenate([scores for _, scores in self._parts])
            first = _configs(batch).first_rows()
            batch, scores = batch.take(first), scores[first]
            if self.cap is not None and len(batch) > self.cap:
                top = np.sort(np.argsort(-scores, kind="stable")[: self.cap])
                batch, scores = batch.take(top), scores[top]
            self._parts, self._unsettled = [(batch, scores)], False
        return self._parts[0]

    def ranked(self) -> tuple[ConfigBatch | CandidateBatch, np.ndarray]:
        """The pool best first (stable: ties stay in insertion order)."""
        batch, scores = self.settled()
        order = np.argsort(-scores, kind="stable")
        return batch.take(order), scores[order]
