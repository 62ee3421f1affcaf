"""The numpy behaviour the GA operators' merged draws rely on.

Four call sites replace consecutive generator calls by one:
``sampler.sample_factorizations`` (one array-bound ``integers`` per tile
level instead of one call per distinct quotient), ``sampler._draw_batch``
(the three annotation columns), ``mutate.mutate_batch`` (swap, move and
annotate draws) and ``mutate.crossover_pairs`` (its four ``random``
calls).  That keeps every drafted row and the generator's position
bit-identical only because numpy draws an array-bound ``integers``
element by element, exactly as the scalar-bound calls would, and
because ``random(a)`` then ``random(b)`` is ``random(a + b)``.  No
numpy API promises either; ``fixtures/ga_golden.json`` would catch a
change in the operators' rows, and this names the cause.  The sampler's
per-quotient loop is kept here as the reference for random extents.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedule.sampler import sample_factorizations, sorted_runs
from repro.schedule.space import divisors

MERGED_SITES = (
    "repro.schedule.sampler.sample_factorizations",
    "repro.schedule.sampler._draw_batch",
    "repro.schedule.mutate.mutate_batch",
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
