"""GA operators over schedules: mutation and crossover.

These are the ``SchMutation`` operators of the paper's Algorithm 2:
tiling-factor transformations of for-loops, plus annotation flips.  The
same operators serve both Ansor's evolutionary search and Pruner's LSE
(which differs only in the fitness function guiding selection).

Both operators are batched: they take and return
:class:`~repro.schedule.batch.ConfigBatch` factor tensors and apply
each mutation kind to its whole sub-group with numpy fancy indexing, so
a GA generation costs a handful of array ops instead of ``population``
Python calls.  The sub-groups — rows sharing a mutation kind and an
axis — come from one stable sort of the population
(:func:`~repro.schedule.sampler.sorted_runs`), not from a mask per
kind and axis.  Mutation kinds (chosen per candidate at random, applied
in this order, axes ascending within a kind):

* resample one axis factorization from scratch,
* swap two factors within an axis,
* move a prime factor between tile levels of an axis,
* flip the unroll / vectorize / splitK annotation.

The scalar :func:`mutate` / :func:`crossover` remain as thin wrappers
delegating to the batch path with ``n == 1``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.cache import register_lru
from repro.schedule.batch import ConfigBatch, space_plan, tensorcore_ok
from repro.schedule.sampler import sample_axis_batch, sorted_runs
from repro.schedule.space import ScheduleConfig, ScheduleSpace


@lru_cache(maxsize=16384)
def _smallest_prime_factor(n: int) -> int:
    p = 2
    while n % p != 0:
        p += 1
    return p


register_lru("schedule.mutate._smallest_prime_factor", _smallest_prime_factor)


def _spf_array(values: np.ndarray) -> np.ndarray:
    """Smallest prime factor of each value (values must be > 1)."""
    order, runs = sorted_runs(values)
    ranked = np.empty_like(values)
    for value, start, stop in runs:
        ranked[start:stop] = _smallest_prime_factor(value)
    out = np.empty_like(values)
    out[order] = ranked
    return out


def _move_factor(
    rng: np.random.Generator, factors: tuple[int, ...]
) -> tuple[int, ...]:
    """Move a prime factor between two positions (product-preserving).

    Scalar helper for neighbourhood-based baselines (Felix's local
    descent); the GA itself uses the batched move inside
    :func:`mutate_batch`.
    """
    if len(factors) < 2:
        return factors
    donors = [i for i, f in enumerate(factors) if f > 1]
    if not donors:
        return factors
    i = int(rng.choice(donors))
    j = int(rng.choice([p for p in range(len(factors)) if p != i]))
    p = _smallest_prime_factor(factors[i])
    out = list(factors)
    out[i] //= p
    out[j] *= p
    return tuple(out)


#: Mutation kinds in the order their draws are made; a candidate's kind
#: is where its uniform draw falls among ``_KIND_EDGES``.
_RESAMPLE, _SWAP, _MOVE, _ANNOTATE = range(4)
_KIND_EDGES = np.array([0.45, 0.65, 0.85])


def mutate_batch(
    batch: ConfigBatch, space: ScheduleSpace, rng: np.random.Generator
) -> ConfigBatch:
    """Return a mutated copy of every candidate, all still inside ``space``.

    Rows are grouped by (mutation kind, axis) with one sort
    (:func:`~repro.schedule.sampler.sorted_runs`) and each group is
    mutated by array ops, kinds in the order listed in the module
    docstring and axes ascending within a kind.  TensorCore candidates
    whose swap/move broke the fragment constraint are repaired like the
    scalar operator: revert to the original row and resample one random
    axis with the constraint-preserving sampler.
    """
    plan = space_plan(space)
    splits = space.splits
    n = len(batch)
    factors = batch.factors.copy()
    unroll = batch.unroll.copy()
    vector = batch.vector.copy()
    splitk = batch.splitk.copy()

    def resample(rows: np.ndarray, a: int) -> None:
        factors[rows, a, : splits[a].parts] = sample_axis_batch(
            rng, space, splits[a], len(rows)
        )

    kind = np.searchsorted(_KIND_EDGES, rng.random(n), side="right")
    # One axis choice per candidate; annotation rows ignore theirs and
    # form one group behind every (kind, axis) group.
    axis_choice = rng.integers(0, plan.n_axes, size=n)
    axis_choice[kind == _ANNOTATE] = 0
    order, runs = sorted_runs(kind * plan.n_axes + axis_choice)
    for key, start, stop in runs:
        rows = order[start:stop]
        k, a = divmod(key, plan.n_axes)
        parts = splits[a].parts
        if k == _RESAMPLE:  # one axis from scratch
            resample(rows, a)
        elif k == _ANNOTATE:  # flip unroll / vectorize / splitK
            choice = rng.random(len(rows))
            for column, options, chosen in (
                (unroll, plan.unroll_options, choice < 0.5),
                (vector, plan.vector_options, (choice >= 0.5) & (choice < 0.8)),
                (splitk, plan.splitk_options, choice >= 0.8),
            ):
                flipped = rows[chosen]
                column[flipped] = options[rng.integers(0, len(options), size=len(flipped))]
        elif parts < 2:
            continue  # nothing to swap, no destination level to move to
        elif k == _SWAP:  # two factors within the axis (product-preserving)
            i = rng.integers(0, parts, size=len(rows))
            j = (i + rng.integers(1, parts, size=len(rows))) % parts
            fi = factors[rows, a, i]
            factors[rows, a, i] = factors[rows, a, j]
            factors[rows, a, j] = fi
        else:  # _MOVE: a smallest-prime factor between levels
            sub = factors[rows, a, :parts]
            donors = sub > 1
            counts = donors.sum(axis=1)
            has = counts > 0
            if not has.any():
                continue
            rows, sub, donors = rows[has], sub[has], donors[has]
            pick = rng.integers(0, counts[has])  # which donor position (by rank)
            donor = np.argmax(donors.cumsum(axis=1) == (pick + 1)[:, None], axis=1)
            dest = rng.integers(0, parts - 1, size=len(rows))
            dest = dest + (dest >= donor)  # uniform over positions != donor
            p = _spf_array(sub[np.arange(len(rows)), donor])
            factors[rows, a, donor] //= p
            factors[rows, a, dest] *= p

    # ----- TensorCore repair (swap/move can break fragment alignment) -----
    if space.tensorcore:
        bad = np.flatnonzero(~tensorcore_ok(plan, factors))
        if len(bad):
            factors[bad] = batch.factors[bad]  # revert to the valid original
            order, runs = sorted_runs(rng.integers(0, plan.n_axes, size=len(bad)))
            for a, start, stop in runs:
                resample(bad[order[start:stop]], a)

    return ConfigBatch(space, factors, unroll, vector, splitk)


def crossover_pairs(
    batch: ConfigBatch,
    left: np.ndarray,
    right: np.ndarray,
    space: ScheduleSpace,
    rng: np.random.Generator,
) -> ConfigBatch:
    """Uniform crossover of ``len(left)`` parent pairs drawn from ``batch``.

    Each axis / annotation is inherited wholesale from either parent, so
    children stay valid by construction (TensorCore constraints are
    per-axis).
    """
    plan = space_plan(space)
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    m = len(left)
    from_left = rng.random((m, plan.n_axes)) < 0.5
    factors = np.where(
        from_left[:, :, None], batch.factors[left], batch.factors[right]
    )
    unroll = np.where(rng.random(m) < 0.5, batch.unroll[left], batch.unroll[right])
    vector = np.where(rng.random(m) < 0.5, batch.vector[left], batch.vector[right])
    splitk = np.where(rng.random(m) < 0.5, batch.splitk[left], batch.splitk[right])
    return ConfigBatch(space, factors, unroll, vector, splitk)


# ----------------------------------------------------------------------
# scalar wrappers (delegate to the batch path with n == 1)
# ----------------------------------------------------------------------
def mutate(
    config: ScheduleConfig, space: ScheduleSpace, rng: np.random.Generator
) -> ScheduleConfig:
    """Return a mutated copy of ``config`` that is still inside ``space``."""
    return mutate_batch(ConfigBatch.from_configs(space, [config]), space, rng).config(0)


def crossover(
    a: ScheduleConfig,
    b: ScheduleConfig,
    space: ScheduleSpace,
    rng: np.random.Generator,
) -> ScheduleConfig:
    """Uniform crossover: each axis / annotation inherited from either parent."""
    parents = ConfigBatch.from_configs(space, [a, b])
    return crossover_pairs(
        parents, np.array([0]), np.array([1]), space, rng
    ).config(0)
