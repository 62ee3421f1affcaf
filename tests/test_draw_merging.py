"""The numpy behaviour the GA operators' merged draws rely on.

Six call sites replace consecutive generator calls by one:
``sampler.sample_factorizations`` (one array-bound ``integers`` per tile
level instead of one call per distinct quotient), ``sampler._draw_batch``
(the three annotation columns), ``mutate.mutate_batch`` three times (the
draws of every swap group as one call, of every move group as one call,
and the annotate draws) and ``mutate.crossover_pairs`` (its four
``random`` calls).  That keeps every drafted row and the generator's
position bit-identical only because numpy draws an array-bound
``integers`` element by element, exactly as the scalar-bound calls
would, and because ``random(a)`` then ``random(b)`` is
``random(a + b)``.  No numpy API promises either; ``fixtures/
ga_golden.json`` would catch a change in the operators' rows, and this
names the cause.  The sampler's per-quotient loop and the mutation's
per-(kind, axis) loop are kept here as the references for random
spaces.

``evolve.next_generation`` draws its parents as ``rng.choice(n, p=)``
does, written out (a CDF, ``random``, a right-sided ``searchsorted``);
the choice-based generation step is kept here as its reference.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch
from repro.schedule.batch import ConfigBatch, space_plan, tensorcore_ok
from repro.schedule.evolve import next_generation
from repro.schedule.mutate import (
    _ANNOTATE,
    _KIND_EDGES,
    _RESAMPLE,
    _SWAP,
    _spf_array,
    crossover_pairs,
    mutate_batch,
)
from repro.schedule.sampler import (
    random_batch,
    sample_axis_batch,
    sample_factorizations,
    sorted_runs,
)
from repro.schedule.space import divisors

MERGED_SITES = (
    "repro.schedule.sampler.sample_factorizations",
    "repro.schedule.sampler._draw_batch",
    "repro.schedule.mutate.mutate_batch (every swap group as one call)",
    "repro.schedule.mutate.mutate_batch (every move group as one call)",
    "repro.schedule.mutate.mutate_batch (annotation flips)",
    "repro.schedule.mutate.crossover_pairs",
)


def _broken(what: str) -> str:
    return (
        f"numpy {np.__version__}: {what}.  The merged draws in "
        f"{', '.join(MERGED_SITES)} no longer reproduce the separate calls"
    )


_groups = st.lists(
    st.tuples(st.integers(1, 2**20), st.integers(0, 40)), max_size=12
)


@given(seed=st.integers(0, 2**32 - 1), groups=_groups)
@settings(max_examples=200, deadline=None)
def test_array_bound_integers_equal_consecutive_scalar_draws(seed, groups):
    separate, merged = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [separate.integers(0, k, size=m) for k, m in groups]
    bounds = np.repeat([k for k, _ in groups], [m for _, m in groups]).astype(np.int64)
    got = merged.integers(0, bounds)
    assert np.array_equal(np.concatenate([np.zeros(0, np.int64), *want]), got), _broken(
        "an array-bound integers() draws other values than per-group calls"
    )
    assert separate.integers(2**63) == merged.integers(2**63), _broken(
        "an array-bound integers() leaves the generator elsewhere"
    )


def _per_quotient_sample(rng, extent: int, parts: int, n: int) -> np.ndarray:
    """The sampler as it was: one ``size=`` draw per distinct quotient."""
    out = np.ones((n, parts), dtype=np.int64)
    if not n:
        return out
    remaining = np.full(n, extent, dtype=np.int64)
    for p in range(parts - 1):
        order, runs = sorted_runs(remaining)
        picks = np.ones(n, dtype=np.int64)
        for value, start, stop in runs:
            if value > 1:
                divs = np.asarray(divisors(value), dtype=np.int64)
                picks[start:stop] = divs[rng.integers(0, len(divs), size=stop - start)]
        out[order, p] = picks
        remaining[order] //= picks
    out[:, parts - 1] = remaining
    return out


@given(
    seed=st.integers(0, 2**32 - 1),
    extent=st.integers(1, 5000),
    parts=st.integers(1, 5),
    n=st.integers(0, 64),
)
@settings(max_examples=150, deadline=None)
def test_sampler_matches_the_per_quotient_draws(seed, extent, parts, n):
    merged, separate = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_factorizations(merged, extent, parts, n)
    assert np.array_equal(got, _per_quotient_sample(separate, extent, parts, n)), _broken(
        "sample_factorizations drew other rows than per-quotient calls"
    )
    assert merged.integers(2**63) == separate.integers(2**63), _broken(
        "sample_factorizations left the generator elsewhere"
    )


@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(0, 40), max_size=8))
@settings(max_examples=100, deadline=None)
def test_consecutive_random_calls_equal_one_call(seed, sizes):
    separate, merged = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [separate.random(m) for m in sizes]
    got = merged.random(sum(sizes))
    assert np.array_equal(np.concatenate([np.zeros(0), *want]), got), _broken(
        "random(a + b) differs from random(a), random(b)"
    )
    assert separate.integers(2**63) == merged.integers(2**63), _broken(
        "random(a + b) leaves the generator elsewhere"
    )


_DIMS = st.sampled_from([1, 2, 3, 6, 7, 12, 16, 36, 48, 64, 100, 128, 224, 256, 512])
_TC_DIMS = st.sampled_from([16, 32, 48, 64, 96, 128, 256])
_SMALL = st.sampled_from([1, 2, 3, 4, 8, 16])


@st.composite
def _spaces(draw):
    """A schedule space of any operator class, TensorCore included."""
    kind = draw(st.sampled_from(["matmul", "tensorcore", "conv2d", "depthwise", "pool", "flat"]))
    splitk = draw(st.booleans())
    if kind == "matmul":
        wl = ops.matmul(draw(_DIMS), draw(_DIMS), draw(_DIMS), batch=draw(_SMALL))
        return generate_sketch(wl, allow_splitk=splitk)
    if kind == "tensorcore":
        wl = ops.matmul(draw(_TC_DIMS), draw(_TC_DIMS), draw(_TC_DIMS), dtype="float16")
        return generate_sketch(wl, tensorcore=True, allow_splitk=splitk)
    kernel = draw(st.sampled_from([1, 2, 3]))
    size = draw(st.sampled_from([7, 8, 14, 28]))
    if kind == "conv2d":
        stride = draw(st.sampled_from([1, 2]))
        wl = ops.conv2d(1, draw(_SMALL), size, size, draw(_SMALL), kernel, stride)
        return generate_sketch(wl, allow_splitk=splitk)
    if kind == "depthwise":
        return generate_sketch(ops.depthwise_conv2d(1, draw(_SMALL), size, size, kernel))
    if kind == "pool":  # flat, with one-level reduction axes
        return generate_sketch(ops.pool2d(1, draw(_SMALL), size, size, kernel, kernel))
    return generate_sketch(ops.elementwise((draw(_DIMS), draw(_DIMS)), n_inputs=2))


def _per_group_mutate(batch, space, rng):
    """``mutate_batch`` as it was: one set of draws per (kind, axis) group."""
    plan = space_plan(space)
    splits = space.splits
    n = len(batch)
    factors = batch.factors.copy()
    unroll = batch.unroll.copy()
    vector = batch.vector.copy()
    splitk = batch.splitk.copy()

    def resample(rows, a):
        factors[rows, a, : splits[a].parts] = sample_axis_batch(rng, space, splits[a], len(rows))

    kind = np.searchsorted(_KIND_EDGES, rng.random(n), side="right")
    axis_choice = rng.integers(0, plan.n_axes, size=n)
    axis_choice[kind == _ANNOTATE] = 0
    order, runs = sorted_runs(kind * plan.n_axes + axis_choice)
    for key, start, stop in runs:
        rows = order[start:stop]
        k, a = divmod(key, plan.n_axes)
        parts = splits[a].parts
        if k == _RESAMPLE:
            resample(rows, a)
        elif k == _ANNOTATE:
            choice = rng.random(len(rows))
            flips = (
                (unroll, plan.unroll_options, rows[choice < 0.5]),
                (vector, plan.vector_options, rows[(choice >= 0.5) & (choice < 0.8)]),
                (splitk, plan.splitk_options, rows[choice >= 0.8]),
            )
            picks = rng.integers(
                0, np.repeat([len(o) for _, o, _ in flips], [len(f) for *_, f in flips])
            )
            at = 0
            for column, options, flipped in flips:
                column[flipped] = options[picks[at : at + len(flipped)]]
                at += len(flipped)
        elif parts < 2:
            continue
        elif k == _SWAP:
            m = len(rows)
            draws = rng.integers(0, np.repeat([parts, parts - 1], m))
            i = draws[:m]
            j = (i + 1 + draws[m:]) % parts
            fi = factors[rows, a, i]
            factors[rows, a, i] = factors[rows, a, j]
            factors[rows, a, j] = fi
        else:
            sub = factors[rows, a, :parts]
            donors = sub > 1
            counts = donors.sum(axis=1)
            has = counts > 0
            if not has.any():
                continue
            rows, sub, donors = rows[has], sub[has], donors[has]
            m = len(rows)
            draws = rng.integers(0, np.concatenate([counts[has], np.full(m, parts - 1)]))
            pick, dest = draws[:m], draws[m:]
            donor = np.argmax(donors.cumsum(axis=1) == (pick + 1)[:, None], axis=1)
            dest = dest + (dest >= donor)
            p = _spf_array(sub[np.arange(len(rows)), donor])
            factors[rows, a, donor] //= p
            factors[rows, a, dest] *= p
    if space.tensorcore:
        bad = np.flatnonzero(~tensorcore_ok(plan, factors))
        if len(bad):
            factors[bad] = batch.factors[bad]
            order, runs = sorted_runs(rng.integers(0, plan.n_axes, size=len(bad)))
            for a, start, stop in runs:
                resample(bad[order[start:stop]], a)
    return ConfigBatch(space, factors, unroll, vector, splitk)


def _same_rows(a: ConfigBatch, b: ConfigBatch) -> bool:
    return a.row_keys() == b.row_keys()


@given(space=_spaces(), seed=st.integers(0, 2**32 - 1), n=st.integers(0, 96))
@settings(max_examples=150, deadline=None)
def test_mutation_matches_the_per_group_draws(space, seed, n):
    population = random_batch(space, make_rng(seed), n)
    merged, separate = make_rng(seed + 1), make_rng(seed + 1)
    for _ in range(3):  # later rounds mutate rows earlier rounds moved
        got = mutate_batch(population, space, merged)
        want = _per_group_mutate(population, space, separate)
        assert _same_rows(got, want), _broken("mutate_batch drew other rows than per-group calls")
        assert merged.integers(2**63) == separate.integers(2**63), _broken(
            "mutate_batch left the generator elsewhere"
        )
        population = got


def _next_generation_with_choice(space, population, order, size, mutation_prob, rng):
    """``next_generation`` as it was, drawing parents with ``rng.choice(p=)``."""
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
    mutate = np.flatnonzero(rng.random(n_children) < mutation_prob)
    if len(mutate):
        mutated = mutate_batch(children.take(mutate), space, rng)
        children.factors[mutate] = mutated.factors
        children.unroll[mutate] = mutated.unroll
        children.vector[mutate] = mutated.vector
        children.splitk[mutate] = mutated.splitk
    return ConfigBatch.concat([elite, children])


@given(
    space=_spaces(),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 600),
    size=st.integers(1, 600),
    prob=st.floats(0.0, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_parent_draw_matches_rng_choice(space, seed, n, size, prob):
    population = random_batch(space, make_rng(seed), n)
    if not len(population):
        return
    order = make_rng(seed + 1).permutation(len(population))
    written, choice = make_rng(seed + 2), make_rng(seed + 2)
    got = next_generation(space, population, order, size, prob, written)
    want = _next_generation_with_choice(space, population, order, size, prob, choice)
    message = (
        f"numpy {np.__version__}: rng.choice(p=) no longer draws as a CDF, "
        "random() and searchsorted(side='right') do; "
        "repro.schedule.evolve.next_generation draws its parents that way"
    )
    assert _same_rows(got, want), message
    assert written.integers(2**63) == choice.integers(2**63), message
