"""What the two row caches promised their callers, kept without them.

Lowering and feature encoding each used to answer through a cross-round
row cache; both went because their keys almost never repeated.  A cache
was correct when a request returned exactly the rows an uncached
computation over the whole request would, in request order, whatever
came before.  Computing every row directly keeps that promise because a
row does not depend on its neighbours: a subset (reordered, repeats
included) computes to the rows indexed out of the whole, bit for bit.

``lowered`` checks ``lower_batch`` (through ``lower_batch_memo``, the
policies' entry), ``features`` the three ``*_batch`` encoders.  Each
keeps the ``cache_stats()`` name the end-to-end benchmark reads.
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

import repro.schedule.batch
from repro.cache import cache_stats, clear_caches, registered_caches
from repro.features import dataflow_tensor_batch, primitive_tensor_batch, statement_matrix_batch
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch
from repro.schedule.batch import ConfigBatch, lower_batch
from repro.schedule.lower import lowered_count
from repro.schedule.memo import lower_batch_memo
from repro.schedule.sampler import random_batch

ENCODERS = (statement_matrix_batch, dataflow_tensor_batch, primitive_tensor_batch)


def _arrays(rows) -> list[np.ndarray]:
    """Every per-row array of a ``CandidateBatch`` (config bytes included)
    and its dataflow blocks as ``rows.blocks`` reads them."""
    columns = [getattr(rows, f.name) for f in fields(rows)]
    return (
        [rows.configs.row_ids()]
        + [column for column in columns if isinstance(column, np.ndarray)]
        + [getattr(rows.blocks, f.name) for f in fields(rows.blocks)]
    )


class Lowered:
    name = "schedule.memo.LOWERED_ROWS"

    @staticmethod
    def rows(space, configs) -> list[np.ndarray]:
        return _arrays(lower_batch_memo(space, configs))

    @staticmethod
    def subset(space, configs, idx) -> list[np.ndarray]:
        return _arrays(lower_batch(space, configs.take(idx)))

    @staticmethod
    def indexed(space, configs, idx) -> list[np.ndarray]:
        return _arrays(lower_batch(space, configs).take(idx))


class Features:
    name = "features.cache.FEATURE_ROWS"

    @staticmethod
    def rows(space, configs) -> list[np.ndarray]:
        batch = lower_batch(space, configs)
        return [encode(batch) for encode in ENCODERS]

    @staticmethod
    def subset(space, configs, idx) -> list[np.ndarray]:
        batch = lower_batch(space, configs).take(idx)
        return [encode(batch) for encode in ENCODERS]

    @staticmethod
    def indexed(space, configs, idx) -> list[np.ndarray]:
        return [rows[idx] for rows in Features.rows(space, configs)]


BOTH = pytest.mark.parametrize("h", [Lowered, Features], ids=["lowered", "features"])


def assert_same(got: list[np.ndarray], want: list[np.ndarray]) -> None:
    """Bit for bit: dtype, shape and bytes of every array."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


@lru_cache(maxsize=None)
def _spaces():
    return (
        generate_sketch(ops.matmul(128, 128, 128)),
        generate_sketch(
            ops.matmul(128, 128, 128, dtype="float16"), tensorcore=True, allow_splitk=True
        ),
        generate_sketch(ops.elementwise((64, 128), n_inputs=2)),
        generate_sketch(ops.conv2d(1, 32, 28, 28, 64, 3, stride=1)),
    )


@lru_cache(maxsize=None)
def _pools():
    return tuple(random_batch(space, make_rng(12), 14) for space in _spaces())


@pytest.fixture(autouse=True)
def _cleared():
    clear_caches()
    yield
    clear_caches()


@BOTH
@settings(max_examples=30, deadline=None)
@given(
    which=st.integers(0, 3),
    chunks=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_request_order_over_several_chunks_with_repeats(h, which, chunks, seed, data):
    """A subset, in any order and with repeats, computes to the rows
    taken from the whole, in every packed field."""
    space = _spaces()[which]
    configs = ConfigBatch.concat(
        [random_batch(space, make_rng(seed + i), size) for i, size in enumerate(chunks)]
    )
    picks = data.draw(st.lists(st.integers(0, len(configs) - 1), min_size=1, max_size=30))
    idx = np.array(picks + picks[::2], dtype=np.int64)  # every request repeats a row
    assert_same(h.subset(space, configs, idx), h.indexed(space, configs, idx))


def test_nothing_hit_returns_the_computed_chunk():
    """A lowering request returns what ``lower_batch`` made of the
    configs it was handed — no index copy of the whole request on the way."""
    space = _spaces()[0]
    configs = random_batch(space, make_rng(11), 9)
    before = lowered_count()
    assert lower_batch_memo(space, configs).configs is configs
    assert lowered_count() - before == len(configs)


@BOTH
def test_clear_fired_inside_compute(h):
    """``clear_caches`` from another job while rows are being computed
    (it drops the space plan the lowering reads) changes no row."""
    space = _spaces()[3]
    configs = _pools()[3]
    want = h.rows(space, configs)
    validate = repro.schedule.batch.validate_batch

    def clearing(*args):
        clear_caches()
        return validate(*args)

    with mock.patch.object(repro.schedule.batch, "validate_batch", clearing):
        assert_same(h.rows(space, configs), want)


@BOTH
def test_counters_survive_clear(h):
    """The counters under the old name are zeros, and stay zeros."""
    zeros = {"hits": 0, "misses": 0, "evictions": 0, "rows": 0}
    assert cache_stats()[h.name] == zeros
    space = _spaces()[0]
    h.rows(space, _pools()[0])
    h.rows(space, _pools()[0])
    assert cache_stats()[h.name] == zeros
    clear_caches()
    assert cache_stats()[h.name] == zeros


@BOTH
def test_registered_name_reports_the_counters(h):
    """``benchmarks/e2e/workloads.py`` indexes exactly these four keys
    under the name."""
    assert registered_caches().count(h.name) == 1
    assert set(cache_stats()[h.name]) == {"hits", "misses", "evictions", "rows"}


_STEPS = st.lists(
    st.one_of(
        st.just("clear"),
        st.tuples(st.integers(0, 3), st.lists(st.integers(0, 13), max_size=10)),
    ),
    max_size=12,
)


@BOTH
@settings(max_examples=30, deadline=None)
@given(steps=_STEPS)
def test_any_fetch_clear_sequence_equals_recompute(h, steps):
    """Requests over four spaces, interleaved with clears, each equal
    the rows indexed out of one computation of the whole pool."""
    for step in steps:
        if step == "clear":
            clear_caches()
            continue
        which, picks = step
        space, pool = _spaces()[which], _pools()[which]
        idx = np.array(picks, dtype=np.int64)
        assert_same(h.rows(space, pool.take(idx)), h.indexed(space, pool, idx))


@BOTH
def test_concurrent_fetches_and_clears_lose_nothing(h):
    """More threads than cores, a short switch interval, one of them
    clearing: every request still returns exactly its rows."""
    space = _spaces()[0]
    pool = random_batch(space, make_rng(13), 40)
    whole = h.rows(space, pool)
    workers, rounds, width = 4, 10, 12
    failures: list[str] = []

    def requester(seed: int) -> None:
        rng = make_rng(seed)
        for _ in range(rounds):
            rows = rng.integers(0, len(pool), size=width)
            got = h.rows(space, pool.take(rows))
            if not all(np.array_equal(g, w[rows]) for g, w in zip(got, whole)):
                failures.append(f"seed {seed}: wrong rows for {rows.tolist()}")

    def clearer() -> None:
        for _ in range(rounds):
            clear_caches()

    threads = [threading.Thread(target=requester, args=(s,)) for s in range(workers)]
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
