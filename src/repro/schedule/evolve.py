"""The evolutionary search both explorers run — everything but the fitness.

Pruner's draft stage (Algorithm 2) is Ansor's evolutionary search with
the Symbol-based Analyzer in place of the learned model, so what the two
share exists once, here, and sees scores only as an order.  The *loops*
stay with their owners and differ on purpose:
:class:`~repro.core.lse.LatentScheduleExplorer` scores whole populations
(unlaunchable rows at ``-inf``) and the last generation too —
``ga_steps + 1`` evaluations, like TVM's ``num_iters + 1``;
:class:`~repro.search.policy.AnsorPolicy` evolves launchable rows only,
re-randomises a generation with none, charges the clock per generation
and stops after ``ga_steps`` evaluations (one fewer: ROADMAP item 2).
"""

from __future__ import annotations

import numpy as np

from repro.schedule.batch import ConfigBatch
from repro.schedule.mutate import crossover_pairs, mutate_batch
from repro.schedule.sampler import random_batch
from repro.schedule.space import ScheduleConfig, ScheduleSpace


def seeded_population(
    space: ScheduleSpace,
    rng: np.random.Generator,
    size: int,
    seeds: list[ScheduleConfig],
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
    seed_batch = ConfigBatch.from_configs(space, seeds)
    cap = size + len(seeds) * 4
    room = cap - len(population) - len(seeds)
    batches = min(-(-room // len(seeds)), max_mutations)
    mutated = [mutate_batch(seed_batch, space, rng) for _ in range(batches)]
    return ConfigBatch.concat([population, seed_batch, *mutated]).slice(0, cap)


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
    tie-break).  The best ``max(2, n // 8)`` survive as elites; the rest
    are crossed from parents drawn with softmax weights over *ranks*
    (robust to score scale) and mutated with ``mutation_prob``.
    """
    n = len(population)
    elite = population.take(order[: max(2, n // 8)])
    n_children = size - len(elite)
    if n_children <= 0:
        return elite
    ranks = np.empty(n)
    ranks[order] = np.arange(n)
    weights = np.exp(-ranks / max(1.0, n / 4.0))
    weights /= weights.sum()
    parents = rng.choice(n, size=(n_children, 2), p=weights)
    children = crossover_pairs(population, parents[:, 0], parents[:, 1], space, rng)
    mutate_mask = rng.random(n_children) < mutation_prob
    if mutate_mask.any():
        stay, mutate = np.flatnonzero(~mutate_mask), np.flatnonzero(mutate_mask)
        mutated = mutate_batch(children.take(mutate), space, rng)
        # back in child order, so the generation's layout stays stable
        moved = ConfigBatch.concat([children.take(stay), mutated])
        children = moved.take(np.argsort(np.concatenate([stay, mutate])))
    return ConfigBatch.concat([elite, children])


class BestPool:
    """PriorFilter: the distinct finite-scored candidates merged so far,
    as parallel arrays — all of them, or with ``cap`` the best ``cap``
    after every merge (S_spec)."""

    def __init__(self, cap: int | None = None) -> None:
        self.cap = cap
        self._parts: list[tuple[ConfigBatch, np.ndarray]] = []
        self._unsettled = False

    def __bool__(self) -> bool:
        return any(len(scores) for _, scores in self._parts)

    def merge(self, population: ConfigBatch, scores: np.ndarray) -> None:
        """Fold a scored generation in (unlaunchable rows, ``-inf``, never enter)."""
        keep = np.isfinite(scores)
        self._parts.append((population.take(keep), scores[keep]))
        self._unsettled = True
        if self.cap is not None:  # what the cap drops depends on when it is applied
            self.settled()

    def settled(self) -> tuple[ConfigBatch, np.ndarray]:
        """The pool in insertion order: duplicates keep their first
        position and score (scoring is deterministic, so first == any)."""
        if self._unsettled:
            batch = ConfigBatch.concat([batch for batch, _ in self._parts])
            scores = np.concatenate([scores for _, scores in self._parts])
            first = batch.first_rows()
            batch, scores = batch.take(first), scores[first]
            if self.cap is not None and len(batch) > self.cap:
                top = np.sort(np.argsort(-scores, kind="stable")[: self.cap])
                batch, scores = batch.take(top), scores[top]
            self._parts, self._unsettled = [(batch, scores)], False
        return self._parts[0]

    def ranked(self) -> tuple[ConfigBatch, np.ndarray]:
        """The pool best first (stable: ties stay in insertion order)."""
        batch, scores = self.settled()
        order = np.argsort(-scores, kind="stable")
        return batch.take(order), scores[order]
