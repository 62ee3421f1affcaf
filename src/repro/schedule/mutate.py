"""GA operators over schedules: mutation and crossover.

These are the ``SchMutation`` operators of the paper's Algorithm 2:
tiling-factor transformations of for-loops, plus annotation flips.  The
same operators serve both Ansor's evolutionary search and Pruner's LSE
(which differs only in the fitness function guiding selection).

Both operators are batched: they take and return
:class:`~repro.schedule.batch.ConfigBatch` factor tensors and apply
each mutation kind with numpy fancy indexing, so a GA generation costs
a handful of array ops instead of ``population`` Python calls.  The
sub-groups — rows sharing a mutation kind and an axis — come from one
stable sort of the population
(:func:`~repro.schedule.sampler.sorted_runs`), not from a mask per
kind and axis; only resampling loops over them (one divisor table per
axis), while all swap groups are one array op over one merged draw,
and so are all move groups.  Mutation kinds (chosen per candidate at
random, applied in this order, axes ascending within a kind):

* resample one axis factorization from scratch,
* swap two factors within an axis,
* move a prime factor between tile levels of an axis,
* flip the unroll / vectorize / splitK annotation.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.cache import register_lru
from repro.schedule.batch import ConfigBatch, SpacePlan, space_plan, tensorcore_ok
from repro.schedule.sampler import sample_axis_batch, sorted_runs
from repro.schedule.space import ScheduleSpace


@lru_cache(maxsize=8)
def _spf_table(size: int) -> np.ndarray:
    """Smallest prime factor of every ``n < size`` (0 and 1 map to themselves)."""
    spf = np.arange(size)
    for p in range(2, math.isqrt(size - 1) + 1):
        if spf[p] == p:
            # multiples already claimed by a smaller prime keep it
            block = spf[p * p :: p]
            np.minimum(block, p, out=block)
    spf.flags.writeable = False  # shared by every caller
    return spf


register_lru("schedule.mutate._spf_table", _spf_table)


def _spf_array(values: np.ndarray) -> np.ndarray:
    """Smallest prime factor of each value (values must be >= 1)."""
    # power-of-two table sizes: a handful of tables serve every space
    size = max(1024, 1 << int(values.max()).bit_length())
    return _spf_table(size)[values]


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
    p = int(_spf_array(np.asarray(factors))[i])
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
    (:func:`~repro.schedule.sampler.sorted_runs`) and mutated by array
    ops, kinds in the order listed in the module docstring and axes
    ascending within a kind.  Resampling runs per axis (each axis draws
    from its own divisor table); every swap group is one array op over
    one merged draw, and so is every move group: the groups' bounds laid
    out in group order, which draws what one call per group would
    (``tests/test_draw_merging.py``).  TensorCore candidates whose
    swap/move broke the fragment constraint are repaired like the scalar
    operator: revert to the original row and resample one random axis
    with the constraint-preserving sampler.
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
    swaps, moves, annotates = np.searchsorted(kind[order], [_SWAP, _MOVE, _ANNOTATE])
    for a, start, stop in runs:
        if start >= swaps:
            break
        resample(order[start:stop], a)  # one axis from scratch

    # two factors within the axis (product-preserving)
    rows, axes, parts = _groups_with_levels(order[swaps:moves], axis_choice, plan)
    if len(rows):
        # per group: ``i``, then the offset to ``j`` in 1 .. parts - 1
        i, offset = _merged_draw(rng, axes, parts, parts - 1)
        j = (i + 1 + offset) % parts
        fi = factors[rows, axes, i]
        factors[rows, axes, i] = factors[rows, axes, j]
        factors[rows, axes, j] = fi

    # a smallest-prime factor between levels
    rows, axes, parts = _groups_with_levels(order[moves:annotates], axis_choice, plan)
    sub = factors[rows, axes]
    donors = (sub > 1) & (np.arange(sub.shape[1]) < parts[:, None])
    counts = donors.sum(axis=1)
    has = counts > 0
    if has.any():
        rows, axes, parts, sub, donors = rows[has], axes[has], parts[has], sub[has], donors[has]
        # per group: which donor position (by rank), then the destination
        pick, dest = _merged_draw(rng, axes, counts[has], parts - 1)
        donor = np.argmax(donors.cumsum(axis=1) == (pick + 1)[:, None], axis=1)
        dest = dest + (dest >= donor)  # uniform over positions != donor
        p = _spf_array(sub[np.arange(len(rows)), donor])
        factors[rows, axes, donor] //= p
        factors[rows, axes, dest] *= p

    # flip unroll / vectorize / splitK
    rows = order[annotates:]
    if len(rows):
        choice = rng.random(len(rows))
        flips = (
            (unroll, plan.unroll_options, rows[choice < 0.5]),
            (vector, plan.vector_options, rows[(choice >= 0.5) & (choice < 0.8)]),
            (splitk, plan.splitk_options, rows[choice >= 0.8]),
        )
        # each column's option draw, in column order, as one call
        picks = rng.integers(
            0, np.repeat([len(o) for _, o, _ in flips], [len(f) for *_, f in flips])
        )
        at = 0
        for column, options, flipped in flips:
            column[flipped] = options[picks[at : at + len(flipped)]]
            at += len(flipped)

    # ----- TensorCore repair (swap/move can break fragment alignment) -----
    if space.tensorcore:
        bad = np.flatnonzero(~tensorcore_ok(plan, factors))
        if len(bad):
            factors[bad] = batch.factors[bad]  # revert to the valid original
            order, runs = sorted_runs(rng.integers(0, plan.n_axes, size=len(bad)))
            for a, start, stop in runs:
                resample(bad[order[start:stop]], a)

    return ConfigBatch(space, factors, unroll, vector, splitk)


def _groups_with_levels(
    rows: np.ndarray, axis_choice: np.ndarray, plan: SpacePlan
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One kind's rows (axes ascending), their axes and factor counts,
    without the rows of one-level axes: nothing to swap, no destination
    level to move to."""
    axes = axis_choice[rows]
    parts = plan.parts[axes]
    keep = parts >= 2
    return rows[keep], axes[keep], parts[keep]


def _merged_draw(
    rng: np.random.Generator, axes: np.ndarray, first: np.ndarray, second: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two bounded draws per row, as one call: the values and generator
    position of one ``integers(0, [*first, *second])`` call per group of
    equal ``axes`` (ascending), groups in order."""
    m = len(axes)
    at = np.searchsorted(axes, axes)  # each row's group start
    size = np.searchsorted(axes, axes, side="right") - at
    # a group's rows from its start: ``first``'s bounds, then ``second``'s
    head = at + np.arange(m)
    tail = head + size
    bounds = np.empty(2 * m, dtype=np.int64)
    bounds[head] = first
    bounds[tail] = second
    draws = rng.integers(0, bounds)
    return draws[head], draws[tail]


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
    # the axes' coins (row-major), then unroll's, vector's and splitK's: one call
    from_left = rng.random(m * (plan.n_axes + 3)) < 0.5
    axes_left = from_left[: m * plan.n_axes].reshape(m, plan.n_axes)
    unroll_left, vector_left, splitk_left = from_left[m * plan.n_axes :].reshape(3, m)
    factors = np.where(
        axes_left[:, :, None], batch.factors[left], batch.factors[right]
    )
    unroll = np.where(unroll_left, batch.unroll[left], batch.unroll[right])
    vector = np.where(vector_left, batch.vector[left], batch.vector[right])
    splitk = np.where(splitk_left, batch.splitk[left], batch.splitk[right])
    return ConfigBatch(space, factors, unroll, vector, splitk)
