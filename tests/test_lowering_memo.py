"""The persistent lowering memo and the batch plumbing beneath it.

``lower_batch_memo`` must be invisible to its callers: memoized lowering
returns the exact rows ``lower_batch`` would, in request order, no
matter which rows were cached by earlier rounds.  The store itself
(``repro.cache.RowCache``) is covered by ``test_row_cache.py``; this
suite pins what is specific to lowering — simulated outcomes of the
returned rows, the ``lowered_count`` telemetry the CI warm-memo
assertion reads — and the supporting ``CandidateBatch.concat`` /
``ConfigBatch.slice``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

import repro.cache
from repro.cache import cache_stats, clear_caches, registered_caches
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch
from repro.schedule.batch import CandidateBatch, ConfigBatch, lower_batch
from repro.schedule.lower import lowered_count
from repro.schedule.memo import LOWERED_ROWS, lower_batch_memo
from repro.schedule.sampler import random_batch, random_population

WORKLOADS = [
    pytest.param(ops.matmul(256, 256, 256), False, id="matmul"),
    pytest.param(ops.matmul(128, 128, 128, dtype="float16"), True, id="tensorcore"),
    pytest.param(ops.elementwise((64, 128), n_inputs=2), False, id="elementwise"),
]

_ROW_FIELDS = (
    "tensorcore",
    "n_blocks",
    "threads",
    "vthreads",
    "acc_regs",
    "reg_elems",
    "thread_compute",
    "smem_elems",
    "traffic_elems",
    "grid",
    "trans_span",
    "flops",
    "tc_align",
    "unroll",
    "vector",
    "splitk",
    "dtype_bytes",
    "output_elems",
    "arith_intensity",
    "n_fused",
    "n_reduction",
    "tag_code",
)


def _space(wl, tc):
    return generate_sketch(wl, tensorcore=tc, allow_splitk=tc)


def _config_keys(batch: CandidateBatch) -> list[str]:
    if batch.configs is not None:
        return [c.key for c in batch.configs.configs()]
    return [p.config.key for p in batch.programs]


def _assert_rows_equal(got: CandidateBatch, want: CandidateBatch, device="a100"):
    """Row-for-row equality: keys, packed fields, simulated outcome."""
    assert _config_keys(got) == _config_keys(want)
    for name in _ROW_FIELDS:
        np.testing.assert_array_equal(
            getattr(got, name), getattr(want, name), err_msg=name
        )
    from repro.hardware.device import get_device

    sim = GroundTruthSimulator(get_device(device))
    np.testing.assert_array_equal(
        sim.run_batch(got).latency, sim.run_batch(want).latency
    )


@pytest.fixture(autouse=True)
def _fresh_memo():
    LOWERED_ROWS.clear()
    yield
    LOWERED_ROWS.clear()


class TestLoweredRowCache:
    @pytest.mark.parametrize("wl,tc", WORKLOADS)
    def test_memoized_equals_direct(self, wl, tc):
        space = _space(wl, tc)
        configs = random_batch(space, make_rng(0), 40)
        _assert_rows_equal(lower_batch_memo(space, configs), lower_batch(space, configs))

    @pytest.mark.parametrize("wl,tc", WORKLOADS)
    def test_warm_fetch_skips_lowering(self, wl, tc):
        """Second round over an overlapping draft set lowers strictly
        fewer rows — the memo's reason to exist."""
        space = _space(wl, tc)
        round1 = random_batch(space, make_rng(1), 50)
        before = lowered_count()
        lower_batch_memo(space, round1)
        cold = lowered_count() - before
        assert cold == 50

        round2 = ConfigBatch.concat([round1, random_batch(space, make_rng(2), 10)])
        before = lowered_count()
        warm = lower_batch_memo(space, round2)
        delta = lowered_count() - before
        assert delta < cold  # strictly fewer lower calls when warm
        assert delta == 10  # exactly the unseen rows
        _assert_rows_equal(warm, lower_batch(space, round2))

    def test_a_round_lowers_its_candidates_once(self):
        """One cold ``Tuner.step``: the counter rises by the rows the
        round lowered, not by those plus one more lowering per measured
        candidate (recording a trial unpacks its row)."""
        from repro import api
        from repro.config import SearchConfig
        from repro.ir.partition import SubgraphTask

        search = SearchConfig(population=24, ga_steps=2, spec_size=12, measure_per_round=6)
        tuner = api.build_tuner(
            "ansor", [SubgraphTask(ops.matmul(128, 128, 128), 1)], "a100", search=search
        )
        before = lowered_count()
        tuner.step()
        funnel = tuner.last_trace.funnel
        assert funnel["measured"] == 6 == len(tuner.records)
        assert lowered_count() - before == funnel["lowered"]

    def test_hit_miss_accounting(self, matmul_space):
        configs = random_batch(matmul_space, make_rng(3), 20).unique()
        before = LOWERED_ROWS.stats()
        lower_batch_memo(matmul_space, configs)
        lower_batch_memo(matmul_space, configs)
        after = LOWERED_ROWS.stats()
        assert after["misses"] - before["misses"] == len(configs)
        assert after["hits"] - before["hits"] == len(configs)
        assert after["rows"] == len(LOWERED_ROWS) == len(configs)
        assert after["evictions"] == before["evictions"]

    def test_duplicate_rows_cached_once(self, matmul_space):
        configs = random_population(matmul_space, make_rng(4), 8)
        doubled = ConfigBatch.from_configs(matmul_space, configs + configs)
        out = lower_batch_memo(matmul_space, doubled)
        assert len(LOWERED_ROWS) == 8
        _assert_rows_equal(out, lower_batch(matmul_space, doubled))

    def test_reordered_fetch_serves_request_order(self, matmul_space):
        configs = random_batch(matmul_space, make_rng(5), 30)
        lower_batch_memo(matmul_space, configs)
        misses = LOWERED_ROWS.stats()["misses"]
        shuffled = configs.take(make_rng(6).permutation(30))
        out = lower_batch_memo(matmul_space, shuffled)
        assert LOWERED_ROWS.stats()["misses"] == misses  # the permutation was all hits
        _assert_rows_equal(out, lower_batch(matmul_space, shuffled))

    def test_capacity_evicts_whole_spaces_fifo(self, matmul_wl, conv_wl):
        s1, s2 = generate_sketch(matmul_wl), generate_sketch(conv_wl)
        with mock.patch.object(repro.cache, "MAX_ROWS", 25):
            lower_batch_memo(s1, random_batch(s1, make_rng(7), 20))
            lower_batch_memo(s2, random_batch(s2, make_rng(8), 20))
            # 40 rows > 25: the older space (s1) was evicted wholesale
            assert len(LOWERED_ROWS) == 20
            assert LOWERED_ROWS.stats()["partitions"] == 1
            # evicted rows simply re-lower; results stay correct
            configs = random_batch(s1, make_rng(7), 20)
            _assert_rows_equal(lower_batch_memo(s1, configs), lower_batch(s1, configs))

    def test_empty_batch_passthrough(self, matmul_space):
        out = lower_batch_memo(matmul_space, [])
        assert len(out) == 0

    def test_registered_and_boundable(self, matmul_space):
        """Both row caches answer to their registered names, under one
        module-level bound (the memory guard; no per-cache knob)."""
        for name in ("schedule.memo.LOWERED_ROWS", "features.cache.FEATURE_ROWS"):
            assert name in registered_caches()
            assert {"hits", "misses", "evictions", "rows"} <= set(cache_stats()[name])
        assert repro.cache.MAX_ROWS == 1 << 16
        lower_batch_memo(matmul_space, random_batch(matmul_space, make_rng(10), 5))
        assert cache_stats()["schedule.memo.LOWERED_ROWS"]["rows"] == 5

    def test_clear_caches_clears_memo(self, matmul_space):
        lower_batch_memo(matmul_space, random_batch(matmul_space, make_rng(11), 6))
        assert len(LOWERED_ROWS) == 6
        clear_caches()
        assert len(LOWERED_ROWS) == 0


class TestBatchPlumbing:
    def test_config_slice_round_trip(self, matmul_space):
        configs = random_batch(matmul_space, make_rng(13), 20)
        parts = [configs.slice(0, 7), configs.slice(7, 16), configs.slice(16, 20)]
        assert sum(len(p) for p in parts) == 20
        rejoined = ConfigBatch.concat(parts)
        assert rejoined.row_keys() == configs.row_keys()
        assert rejoined.configs() == configs.configs()

    @pytest.mark.parametrize("wl,tc", WORKLOADS)
    def test_candidate_concat_matches_whole(self, wl, tc):
        space = _space(wl, tc)
        configs = random_batch(space, make_rng(14), 30)
        whole = lower_batch(space, configs)
        parts = [
            lower_batch(space, configs.slice(0, 11)),
            lower_batch(space, configs.slice(11, 30)),
        ]
        _assert_rows_equal(CandidateBatch.concat(parts), whole)

    def test_concat_from_programs_parts(self, matmul_space):
        configs = random_population(matmul_space, make_rng(15), 12)
        batch = lower_batch(matmul_space, configs)
        progs = [batch.program(i) for i in range(len(batch))]
        joined = CandidateBatch.concat(
            [
                CandidateBatch.from_programs(progs[:5]),
                CandidateBatch.from_programs(progs[5:]),
            ]
        )
        _assert_rows_equal(joined, CandidateBatch.from_programs(progs))

    def test_concat_mixed_origin_rejected(self, matmul_space):
        from repro.errors import ScheduleError

        configs = random_population(matmul_space, make_rng(16), 4)
        lowered = lower_batch(matmul_space, configs)
        packed = CandidateBatch.from_programs(
            [lowered.program(i) for i in range(2)]
        )
        with pytest.raises(ScheduleError):
            CandidateBatch.concat([lowered, packed])
