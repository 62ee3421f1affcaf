"""Random schedule sampling (initial populations, RandomInitSch).

Sampling picks, independently per axis, a uniformly random chain of
divisors — the same scheme Ansor uses to seed its evolutionary search.
TensorCore spaces are sampled on the quotient space ``extent / 16`` and
the WMMA edge is re-attached to the innermost factor, so every sample
satisfies the fragment constraint by construction.

The implementation is batched: :func:`sample_factorizations` draws a
whole ``(n, parts)`` factor matrix at once (one stable argsort of the
remaining quotients and one bounded draw per tile level, divisors
looked up in a padded per-extent table), and :func:`random_batch`
assembles entire populations as
:class:`~repro.schedule.batch.ConfigBatch` factor tensors.
:func:`random_config` draws one config through the same path with
``n == 1``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.cache import register_lru
from repro.schedule.batch import MAX_PARTS, ConfigBatch, space_plan
from repro.schedule.space import (
    WMMA,
    WMMA_LANE,
    AxisSplit,
    ScheduleConfig,
    ScheduleSpace,
    divisors,
)


@lru_cache(maxsize=1024)
def _divisor_table(
    extent: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The divisor chains of ``extent``, padded: ``(quotients, counts, table, after)``.

    A row's remaining quotient is always a divisor of ``extent``, so the
    sampler tracks it by rank ``r`` in ``quotients`` (the divisors of
    ``extent``, ascending).  ``table[r, :counts[r]]`` are the divisors of
    ``quotients[r]`` ascending (padded with 1), and ``after[r, j]`` is the
    rank of the quotient left once ``table[r, j]`` is taken out.
    """
    quotients = np.asarray(divisors(extent), dtype=np.int64)
    chains = [divisors(q) for q in quotients.tolist()]
    counts = np.array([len(chain) for chain in chains], dtype=np.int64)
    table = np.ones((len(chains), int(counts.max())), dtype=np.int64)
    for r, chain in enumerate(chains):
        table[r, : len(chain)] = chain
    after = np.searchsorted(quotients, quotients[:, None] // table)
    for array in (quotients, counts, table, after):
        array.flags.writeable = False  # shared by every caller of the memo
    return quotients, counts, table, after


register_lru("schedule.sampler._divisor_table", _divisor_table)


def sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Group rows by key with one stable argsort: ``(order, runs)``.

    Each run ``(key, start, stop)`` says ``order[start:stop]`` are the
    rows holding ``key``, in ascending row order; runs come in ascending
    key order.  This is the grouping every GA operator draws by (rows by
    remaining quotient, by mutation kind and axis, by factor value) —
    what a loop over the distinct keys with a mask per key computes,
    without the masks.
    """
    order = np.argsort(keys, kind="stable")
    if not len(keys):
        return order, []
    ranked = keys[order]
    starts = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()]
    return order, list(zip(ranked[starts].tolist(), starts, [*starts[1:], len(keys)]))


def sample_factorizations(
    rng: np.random.Generator, extent: int, parts: int, n: int
) -> np.ndarray:
    """Sample ``n`` ordered factorizations of ``extent``: shape ``(n, parts)``.

    Each row follows the uniform divisor-chain scheme of the scalar
    sampler.  A tile level is one ``rng.integers`` call with a bound per
    row (its quotient's divisor count), rows in ascending quotient, then
    ascending row order: the same values, and the same generator
    position after, as one call per distinct quotient (numpy draws an
    array bound element by element; ``tests/test_draw_merging.py``
    guards this).  A quotient of 1 has one divisor and draws nothing.
    """
    out = np.ones((n, parts), dtype=np.int64)
    if not n:
        return out  # no draw: an empty batch must leave the generator where it was
    quotients, counts, table, after = _divisor_table(extent)
    rank = np.full(n, len(quotients) - 1)  # every row starts at ``extent``
    for p in range(parts - 1):
        # the first level is one quotient: the rows are in order as they stand
        order = np.argsort(rank, kind="stable") if p else slice(None)
        ranked = rank[order]
        pick = rng.integers(0, counts[ranked])
        out[order, p] = table[ranked, pick]
        rank[order] = after[ranked, pick]
    out[:, parts - 1] = quotients[rank]
    return out


def sample_axis_batch(
    rng: np.random.Generator, space: ScheduleSpace, split: AxisSplit, n: int
) -> np.ndarray:
    """Sample ``n`` factorizations for one axis, honouring TensorCore rules."""
    if space.tensorcore:
        matrix_axes = {s.axis for s in space.spatial_splits[-2:]}
        if split.axis in matrix_axes:
            # per-lane tile must be a fragment-share multiple
            out = sample_factorizations(rng, split.extent // WMMA_LANE, split.parts, n)
            out[:, -1] *= WMMA_LANE
            return out
        if space.reduction_splits and split.axis == space.reduction_splits[0].axis:
            # reduction chunk (k1*k2) must be a WMMA multiple
            out = sample_factorizations(rng, split.extent // WMMA, split.parts, n)
            out[:, -1] *= WMMA
            return out
    return sample_factorizations(rng, split.extent, split.parts, n)


def _draw_batch(
    space: ScheduleSpace, rng: np.random.Generator, n: int
) -> ConfigBatch:
    """Draw ``n`` random candidates (no dedup) as a ConfigBatch."""
    plan = space_plan(space)
    factors = np.ones((n, plan.n_axes, MAX_PARTS), dtype=np.int64)
    for a, split in enumerate(space.splits):
        factors[:, a, : split.parts] = sample_axis_batch(rng, space, split, n)
    options = (plan.unroll_options, plan.vector_options, plan.splitk_options)
    # the three columns' draws in one call (see sample_factorizations)
    picks = rng.integers(0, np.repeat([len(o) for o in options], n)).reshape(3, n)
    unroll, vector, splitk = (o[p] for o, p in zip(options, picks))
    return ConfigBatch(space, factors, unroll, vector, splitk)


def random_batch(
    space: ScheduleSpace, rng: np.random.Generator, size: int
) -> ConfigBatch:
    """Sample ``size`` distinct candidates (may return fewer for tiny spaces).

    Mirrors the scalar rejection loop: keep drawing until ``size``
    unique candidates are collected or ``size * 10`` draws are spent.
    """
    collected = _draw_batch(space, rng, 0)  # empty, correctly shaped
    attempts = 0
    while attempts < size * 10:
        need = size - len(collected)
        if need <= 0:
            break
        drawn = _draw_batch(space, rng, need)
        attempts += need
        collected = ConfigBatch.concat([collected, drawn]).unique()
    return collected


def random_population(
    space: ScheduleSpace, rng: np.random.Generator, size: int
) -> list[ScheduleConfig]:
    """Sample ``size`` schedules, deduplicated (may return fewer for tiny spaces)."""
    return random_batch(space, rng, size).configs()


def random_config(space: ScheduleSpace, rng: np.random.Generator) -> ScheduleConfig:
    """Sample one uniformly random schedule configuration from ``space``."""
    return _draw_batch(space, rng, 1).config(0)
