"""Properties of :mod:`repro.schedule.evolve` that need no reference.

What the two explorers *draw* through these functions is pinned row for
row by ``test_ga_golden.py``; here are the invariants that hold for any
population, any order and any chunking.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import evolve, generate_sketch
from repro.schedule.batch import ConfigBatch, validate_batch
from repro.schedule.evolve import BestPool, next_generation, seeded_population
from repro.schedule.sampler import random_batch

SPACES = [
    generate_sketch(ops.matmul(256, 256, 256)),
    generate_sketch(ops.matmul(128, 128, 128, dtype="float16"), tensorcore=True, allow_splitk=True),
    generate_sketch(ops.elementwise((64, 128), n_inputs=2)),  # flat, 336 schedules
    generate_sketch(ops.elementwise((4, 4), n_inputs=2)),  # flat, 54: duplicates abound
]
spaces = st.sampled_from(SPACES)
seeds = st.integers(0, 2**32 - 1)


def _scored_chunks(space, seed, sizes):
    """Random chunks that repeat rows, integer scores (some not finite)."""
    rng = make_rng(seed)
    chunks = []
    for size in sizes:
        batch = random_batch(space, rng, size)
        batch = batch.take(rng.integers(0, max(1, len(batch)), size=size if len(batch) else 0))
        scores = rng.integers(0, 6, size=len(batch)).astype(np.float64)  # ties on purpose
        scores[rng.random(len(batch)) < 0.2] = -np.inf
        chunks.append((batch, scores))
    return chunks


@settings(max_examples=40, deadline=None)
@given(spaces, seeds, st.integers(1, 40), st.integers(1, 48), st.floats(0.0, 1.0))
def test_next_generation_stays_in_space_and_has_the_asked_size(space, seed, n, size, prob):
    rng = make_rng(seed)
    population = random_batch(space, rng, n)
    n = len(population)
    order = rng.permutation(n)
    children = next_generation(space, population, order, size, prob, rng)
    validate_batch(space, children)
    elite = min(n, max(2, n // 8))
    assert len(children) == max(size, elite)
    assert children.row_keys()[:elite] == population.take(order[:elite]).row_keys()


@settings(max_examples=40, deadline=None)
@given(spaces, seeds, st.lists(st.integers(0, 30), min_size=1, max_size=5))
def test_uncapped_pool_does_not_depend_on_the_chunking(space, seed, sizes):
    chunks = _scored_chunks(space, seed, sizes)
    fed = BestPool()
    for batch, scores in chunks:
        fed.merge(batch, scores)
    once = BestPool()
    once.merge(
        ConfigBatch.concat([batch for batch, _ in chunks]),
        np.concatenate([scores for _, scores in chunks]),
    )
    (fed_batch, fed_scores), (once_batch, once_scores) = fed.settled(), once.settled()
    assert fed_batch.row_keys() == once_batch.row_keys()
    assert fed_scores.tolist() == once_scores.tolist()
    ranked, scores = fed.ranked()
    assert ranked.row_keys() == once.ranked()[0].row_keys()
    assert scores.tolist() == sorted(fed_scores.tolist(), reverse=True)
    assert bool(fed) == bool(once) == bool(len(fed_scores))


@settings(max_examples=40, deadline=None)
@given(spaces, seeds, st.lists(st.integers(0, 30), min_size=1, max_size=5), st.integers(1, 20))
def test_capped_pool_holds_at_most_cap_distinct_finite_rows(space, seed, sizes, cap):
    pool = BestPool(cap)
    everything = BestPool()
    for batch, scores in _scored_chunks(space, seed, sizes):
        pool.merge(batch, scores)
        everything.merge(batch, scores)
        (kept, kept_scores), (seen, seen_scores) = pool.settled(), everything.settled()
        keys = kept.row_keys()
        assert len(kept_scores) == len(keys) == len(set(keys)) <= cap
        assert np.isfinite(kept_scores).all()
        # nothing it dropped beats what it kept
        if len(keys) == cap:
            assert kept_scores.min() >= np.sort(seen_scores)[::-1][cap - 1]
        else:
            assert keys == seen.row_keys()


def test_an_empty_first_merge_leaves_an_empty_ranked_pool():
    space = SPACES[0]
    pool = BestPool(4)
    pool.merge(random_batch(space, make_rng(0), 3), np.full(3, -np.inf))
    ranked, scores = pool.ranked()
    assert not pool and len(ranked) == len(scores) == 0
    pool.merge(random_batch(space, make_rng(0), 3), np.array([1.0, 3.0, 2.0]))
    assert pool and pool.ranked()[1].tolist() == [3.0, 2.0, 1.0]


@pytest.mark.parametrize("population, max_mutations, want", [(16, 1, 1), (16, 3, 3), (64, 4, 3)])
def test_max_mutations_is_the_only_difference_between_the_two_callers(
    monkeypatch, population, max_mutations, want
):
    """LSE passes 3, Ansor ``max(1, population // 16)``: with a full
    random population the cap has room for three batches and no more."""
    space = SPACES[0]
    calls = []
    real = evolve.mutate_batch
    monkeypatch.setattr(
        evolve, "mutate_batch", lambda *args: calls.append(1) or real(*args)
    )
    seeds_ = random_batch(space, make_rng(1), 5).configs()
    got = seeded_population(space, make_rng(2), population, seeds_, max_mutations)
    assert len(calls) == want
    assert len(got) == population + 5 * (1 + want)
    validate_batch(space, got)
