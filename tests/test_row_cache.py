"""``repro.cache.RowCache``, checked through both of its instances.

``LOWERED_ROWS`` (partition = space, chunks = ``CandidateBatch``) and
``FEATURE_ROWS`` (partition = (space, kind), chunks = ndarrays) must be
invisible to their callers: a fetch returns exactly the rows an
uncached ``compute`` over the whole request would, in request order,
whatever earlier fetches, clears and evictions left in the store.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import fields
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cache
from repro.cache import cache_stats, clear_caches, registered_caches
from repro.features.cache import FEATURE_ROWS
from repro.features.statement import _encode as encode_statement
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch
from repro.schedule.batch import ConfigBatch, lower_batch
from repro.schedule.memo import LOWERED_ROWS
from repro.schedule.sampler import random_batch


class Lowered:
    """``LOWERED_ROWS`` as ``lower_batch_memo`` drives it."""

    cache = LOWERED_ROWS
    name = "schedule.memo.LOWERED_ROWS"

    @staticmethod
    def partition(space):
        return space

    @staticmethod
    def uncached(space, configs):
        return lower_batch(space, configs)


class Features:
    """``FEATURE_ROWS`` as ``statement_matrix_batch`` drives it."""

    cache = FEATURE_ROWS
    name = "features.cache.FEATURE_ROWS"

    @staticmethod
    def partition(space):
        return (space, "statement")

    @staticmethod
    def uncached(space, configs):
        return encode_statement(lower_batch(space, configs))


BOTH = pytest.mark.parametrize("h", [Lowered, Features], ids=["lowered", "features"])


def _arrays(chunk) -> list[np.ndarray]:
    if isinstance(chunk, np.ndarray):
        return [chunk]
    skip = ("configs", "programs", "blocks")
    return (
        [chunk.configs.row_ids()]
        + [getattr(chunk, f.name) for f in fields(chunk) if f.name not in skip]
        + [getattr(chunk.blocks, f.name) for f in fields(chunk.blocks)]
    )


def assert_same(got, want) -> None:
    for a, b in zip(_arrays(got), _arrays(want), strict=True):
        np.testing.assert_array_equal(a, b)


def fetch(h, space, configs, seen: list | None = None, during=None):
    """One fetch as the callers make it; ``seen`` collects what reached compute."""

    def compute(miss):
        if seen is not None:
            seen.append(miss.tolist())
        if during is not None:
            during()
        return h.uncached(space, configs.take(miss))

    return h.cache.fetch(h.partition(space), configs.row_keys(), compute)


def indexed_keys(cache) -> int:
    return sum(len(index) for index, _ in cache._parts.values())


@lru_cache(maxsize=None)
def _spaces():
    return (
        generate_sketch(ops.matmul(128, 128, 128)),
        generate_sketch(ops.conv2d(1, 32, 28, 28, 64, 3, stride=1)),
        generate_sketch(ops.matmul(64, 64, 64)),
    )


@pytest.fixture(autouse=True)
def _empty_stores():
    clear_caches()
    yield
    clear_caches()


@BOTH
def test_request_order_over_several_chunks_with_repeats(h):
    space = _spaces()[0]
    a, b, c = (random_batch(space, make_rng(s), 12) for s in (1, 2, 3))
    for earlier in (a, b, c):
        fetch(h, space, earlier)
    stored = set(a.row_keys() + b.row_keys() + c.row_keys())
    new = random_batch(space, make_rng(4), 5)
    request = ConfigBatch.concat(
        [
            c.take(np.array([4, 2])),
            new,
            a.take(np.array([11, 0, 11])),  # a stored row twice
            b.take(np.array([7])),
            new.take(np.array([1, 3])),  # unseen rows repeated in one request
            a.take(np.array([5])),
        ]
    )
    keys = request.row_keys()
    before = h.cache.stats()
    seen: list = []
    got = fetch(h, space, request, seen)
    assert_same(got, h.uncached(space, request))
    # only the unseen rows were computed — every occurrence of them, once
    expected_miss = [i for i, key in enumerate(keys) if key not in stored]
    assert seen == [expected_miss]
    after = h.cache.stats()
    assert after["misses"] - before["misses"] == len(expected_miss)
    assert after["hits"] - before["hits"] == len(keys) - len(expected_miss)
    assert len(h.cache) == len(stored | set(keys)) == indexed_keys(h.cache)


@BOTH
def test_stored_rows_never_reach_compute(h):
    space = _spaces()[0]
    configs = random_batch(space, make_rng(5), 30)
    fetch(h, space, configs)
    shuffled = configs.take(make_rng(6).permutation(30))
    seen: list = []
    assert_same(fetch(h, space, shuffled, seen), h.uncached(space, shuffled))
    assert seen == []
    # the same row bytes under another partition are different rows
    other = _spaces()[2]
    fetch(h, other, random_batch(other, make_rng(5), 4), seen)
    assert seen == [[0, 1, 2, 3]]


@BOTH
def test_nothing_hit_returns_the_computed_chunk(h):
    """An all-miss request is what ``compute`` returned — no concat of a
    one-element list, no identity permutation over every column — and it
    is counted and stored like any other."""
    space = _spaces()[0]
    fetch(h, space, random_batch(space, make_rng(11), 6))  # an earlier chunk
    new = random_batch(space, make_rng(12), 9)
    request = ConfigBatch.concat([new, new.take(np.array([3, 3, 0]))])  # repeats
    computed: list = []

    def compute(miss):
        computed.append(h.uncached(space, request.take(miss)))
        return computed[-1]

    before = h.cache.stats()
    got = h.cache.fetch(h.partition(space), request.row_keys(), compute)
    assert got is computed[0]
    assert_same(got, h.uncached(space, request))
    after = h.cache.stats()
    assert after["misses"] - before["misses"] == 12
    assert after["hits"] == before["hits"]
    assert after["rows"] - before["rows"] == 9 == indexed_keys(h.cache) - 6
    # stored under the first occurrence of each key, reachable in any order
    shuffled = request.take(make_rng(13).permutation(12))
    seen: list = []
    assert_same(fetch(h, space, shuffled, seen), h.uncached(space, shuffled))
    assert seen == []


@BOTH
def test_clear_fired_inside_compute(h):
    """The hits were resolved before ``compute`` ran; a ``clear()`` from
    another job must neither corrupt them nor leak the fresh rows."""
    space = _spaces()[0]
    old = random_batch(space, make_rng(7), 10)
    fetch(h, space, old)
    request = ConfigBatch.concat([old.take(np.arange(6)), random_batch(space, make_rng(8), 9)])
    got = fetch(h, space, request, during=h.cache.clear)
    assert_same(got, h.uncached(space, request))
    fresh = set(request.row_keys()) - set(old.row_keys())
    assert len(h.cache) == h.cache.stats()["rows"] == indexed_keys(h.cache) == len(fresh)
    # what was stored after the clear is reachable: only the dropped rows miss
    seen: list = []
    fetch(h, space, request, seen)
    assert len(seen[0]) == len(request) - sum(k in fresh for k in request.row_keys())


@BOTH
def test_bound_evicts_whole_partitions_least_recently_fetched_first(h):
    s1, s2, s3 = _spaces()
    batches = {s: random_batch(s, make_rng(9), 20).unique() for s in (s1, s2, s3)}
    sizes = {s: len(b) for s, b in batches.items()}
    with mock.patch.object(repro.cache, "MAX_ROWS", sizes[s1] + sizes[s2] + 5):
        before = h.cache.stats()["evictions"]
        fetch(h, s1, batches[s1])
        fetch(h, s2, batches[s2])
        fetch(h, s1, batches[s1])  # s1 is now the more recently used
        assert h.cache.stats()["evictions"] == before
        fetch(h, s3, batches[s3])  # over the bound: s2 leaves, all of it
        stats = h.cache.stats()
        assert stats["evictions"] - before == sizes[s2]
        assert stats["partitions"] == 2
        assert stats["rows"] == sizes[s1] + sizes[s3] == indexed_keys(h.cache)
        seen: list = []
        fetch(h, s1, batches[s1], seen)
        assert seen == []
        # evicted rows are simply computed again
        assert_same(fetch(h, s2, batches[s2], seen), h.uncached(s2, batches[s2]))
        assert seen == [list(range(sizes[s2]))]


@BOTH
def test_counters_survive_clear(h):
    space = _spaces()[0]
    configs = random_batch(space, make_rng(10), 8)
    fetch(h, space, configs)
    fetch(h, space, configs)
    counters = {k: v for k, v in h.cache.stats().items() if k in ("hits", "misses", "evictions")}
    assert counters["hits"] >= 8 and counters["misses"] >= 8
    h.cache.clear()
    assert h.cache.stats() == {**counters, "rows": 0, "partitions": 0}


@BOTH
def test_registered_name_reports_the_counters(h):
    """The benchmark and ``GET /metrics`` read these by registered name."""
    assert h.name in registered_caches()
    space = _spaces()[0]
    before = cache_stats()[h.name]
    fetch(h, space, random_batch(space, make_rng(11), 6).unique())
    after = cache_stats()[h.name]
    assert {"hits", "misses", "evictions", "rows"} <= set(after)
    assert after["misses"] - before["misses"] == after["rows"] == len(h.cache)
    clear_caches()
    assert len(h.cache) == 0


@lru_cache(maxsize=None)
def _pools():
    return tuple(random_batch(space, make_rng(12), 14) for space in _spaces()[:2])


_OPS = st.lists(
    st.one_of(
        st.just("clear"),
        st.tuples(st.integers(0, 1), st.lists(st.integers(0, 13), max_size=10)),
    ),
    max_size=12,
)


@BOTH
@settings(max_examples=40, deadline=None)
@given(steps=_OPS)
def test_any_fetch_clear_sequence_equals_recompute(h, steps):
    h.cache.clear()
    # a bound small enough that longer sequences also evict
    with mock.patch.object(repro.cache, "MAX_ROWS", 16):
        for step in steps:
            if step == "clear":
                h.cache.clear()
                continue
            which, rows = step
            space = _spaces()[which]
            request = _pools()[which].take(np.array(rows, dtype=np.int64))
            assert_same(fetch(h, space, request), h.uncached(space, request))
            assert h.cache.stats()["rows"] == indexed_keys(h.cache) <= 16


@BOTH
def test_concurrent_fetches_and_clears_lose_nothing(h):
    """More threads than cores, a short switch interval, one of them
    clearing: every fetch still returns the right rows and no counted
    row is unreachable (the lost update a missing lock would cause)."""
    space = _spaces()[0]
    pool = random_batch(space, make_rng(13), 40)
    want = _arrays(h.uncached(space, pool))
    workers, rounds, width = 8, 25, 12
    failures: list[str] = []
    before = h.cache.stats()

    def fetcher(seed: int) -> None:
        rng = make_rng(seed)
        for _ in range(rounds):
            rows = rng.integers(0, len(pool), size=width)
            got = _arrays(fetch(h, space, pool.take(rows)))
            if not all(np.array_equal(g, w[rows]) for g, w in zip(got, want)):
                failures.append(f"seed {seed}: wrong rows for {rows.tolist()}")

    def clearer() -> None:
        for _ in range(rounds):
            h.cache.clear()

    threads = [threading.Thread(target=fetcher, args=(s,)) for s in range(workers)]
    threads.append(threading.Thread(target=clearer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    after = h.cache.stats()
    requested = workers * rounds * width
    assert (after["hits"] - before["hits"]) + (after["misses"] - before["misses"]) == requested
    assert after["rows"] == indexed_keys(h.cache) <= len(set(pool.row_keys()))
