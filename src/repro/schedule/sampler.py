"""Random schedule sampling (initial populations, RandomInitSch).

Sampling picks, independently per axis, a uniformly random chain of
divisors — the same scheme Ansor uses to seed its evolutionary search.
TensorCore spaces are sampled on the quotient space ``extent / 16`` and
the WMMA edge is re-attached to the innermost factor, so every sample
satisfies the fragment constraint by construction.

The implementation is batched: :func:`sample_factorizations` draws a
whole ``(n, parts)`` factor matrix at once (grouping candidates by
their remaining quotient — one stable argsort per part, see
:func:`sorted_runs` — so each group is one vectorized divisor draw),
and :func:`random_batch` assembles entire populations as
:class:`~repro.schedule.batch.ConfigBatch` factor tensors.  The scalar
entry points (:func:`sample_factorization`, :func:`random_config`) are
thin wrappers over the batch path with ``n == 1``.
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


@lru_cache(maxsize=4096)
def _divisor_array(n: int) -> np.ndarray:
    """Divisors of ``n`` as an int64 array (memoized)."""
    return np.asarray(divisors(n), dtype=np.int64)


register_lru("schedule.sampler._divisor_array", _divisor_array)


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
    sampler; rows sharing a remaining quotient are drawn together, one
    vectorized choice per distinct quotient in ascending order.
    """
    out = np.ones((n, parts), dtype=np.int64)
    if not n:
        return out  # no draw: an empty batch must leave the generator where it was
    remaining = np.full(n, extent, dtype=np.int64)
    for p in range(parts - 1):
        # every row starts at ``extent``: the first part is one group as it stands
        order, runs = sorted_runs(remaining) if p else (slice(None), [(extent, 0, n)])
        picks = np.ones(n, dtype=np.int64)  # in ``order``; a quotient of 1 draws nothing
        for value, start, stop in runs:
            if value > 1:
                divs = _divisor_array(value)
                picks[start:stop] = divs[rng.integers(0, len(divs), size=stop - start)]
        out[order, p] = picks
        remaining[order] //= picks
    out[:, parts - 1] = remaining
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
    unroll = plan.unroll_options[rng.integers(0, len(plan.unroll_options), size=n)]
    vector = plan.vector_options[rng.integers(0, len(plan.vector_options), size=n)]
    splitk = plan.splitk_options[rng.integers(0, len(plan.splitk_options), size=n)]
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


def sample_factorization(
    rng: np.random.Generator, extent: int, parts: int
) -> tuple[int, ...]:
    """Sample one ordered factorization of ``extent`` into ``parts`` factors."""
    return tuple(int(f) for f in sample_factorizations(rng, extent, parts, 1)[0])
