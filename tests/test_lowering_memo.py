"""``lower_batch_memo`` and the batch plumbing beneath the policies.

``lower_batch_memo`` is the search policies' lowering entry, kept under
that name because the end-to-end benchmark's tracer patches it; there
is no memo behind it any more, so it returns exactly the rows
``lower_batch`` would, lowering every row it is given.  A round still
lowers each of its candidates once: Ansor's picks come out of the
lowered rows it pooled, not out of a second lowering.  The batch-level
property that makes the deleted row caches invisible (a subset lowers
to the rows taken from the whole) is pinned in ``test_row_cache.py``;
this suite also covers ``CandidateBatch.concat`` / ``ConfigBatch.slice``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import cache_stats, clear_caches
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch
from repro.schedule.batch import CandidateBatch, ConfigBatch, lower_batch, space_plan
from repro.schedule.lower import lowered_count
from repro.schedule.memo import lower_batch_memo
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
    return [c.key for c in batch.configs.configs()]


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


class TestLoweredRowCache:
    """``lower_batch_memo`` lowers what it is given, every time."""

    @pytest.mark.parametrize("wl,tc", WORKLOADS)
    def test_memoized_equals_direct(self, wl, tc):
        space = _space(wl, tc)
        configs = random_batch(space, make_rng(0), 40)
        _assert_rows_equal(lower_batch_memo(space, configs), lower_batch(space, configs))

    @pytest.mark.parametrize("method", ["ansor", "pruner"])
    def test_a_round_lowers_its_candidates_once(self, method):
        """One cold ``Tuner.step``: the counter rises by the rows the
        round lowered, not by those plus one more lowering per measured
        candidate (recording a trial unpacks its row).  Pruner's draft
        lowers every generation it scores on top of that, outside the
        funnel, except the elites leading a later generation, which keep
        their scores: ``population`` rows, then ``population - max(2,
        population // 8)`` per GA step on a cold start."""
        from repro import api
        from repro.config import SearchConfig
        from repro.ir.partition import SubgraphTask

        search = SearchConfig(population=24, ga_steps=2, spec_size=12, measure_per_round=6)
        tuner = api.build_tuner(
            method, [SubgraphTask(ops.matmul(128, 128, 128), 1)], "a100", search=search
        )
        children = search.population - max(2, search.population // 8)
        draft = search.population + search.ga_steps * children if method == "pruner" else 0
        before = lowered_count()
        tuner.step()
        funnel = tuner.last_trace.funnel
        assert funnel["measured"] == 6 == len(tuner.records)
        assert lowered_count() - before == funnel["lowered"] + draft

    def test_a_warm_ansor_round_takes_its_picks_from_the_pool(self):
        """Past the cold start Ansor evolves, pools what it lowered and
        picks from that pool: the picks are not lowered a second time."""
        from repro import api
        from repro.config import SearchConfig
        from repro.ir.partition import SubgraphTask

        search = SearchConfig(population=24, ga_steps=2, spec_size=12, measure_per_round=6)
        tuner = api.build_tuner(
            "ansor", [SubgraphTask(ops.matmul(128, 128, 128), 1)], "a100", search=search
        )
        tuner.step()
        for _ in range(2):
            before = lowered_count()
            tuner.step()
            funnel = tuner.last_trace.funnel
            assert funnel["measured"] == 6
            assert funnel["drafted"] > search.population  # the GA ran
            assert lowered_count() - before == funnel["lowered"]

    def test_hit_miss_accounting(self, matmul_space):
        """Every call lowers every row again; the counters still read
        under the old row cache's name stay at zero."""
        configs = random_batch(matmul_space, make_rng(3), 20)
        before = lowered_count()
        lower_batch_memo(matmul_space, configs)
        lower_batch_memo(matmul_space, configs)
        assert lowered_count() - before == 2 * len(configs)
        stats = cache_stats()["schedule.memo.LOWERED_ROWS"]
        assert stats == {"hits": 0, "misses": 0, "evictions": 0, "rows": 0}

    def test_reordered_fetch_serves_request_order(self, matmul_space):
        configs = random_batch(matmul_space, make_rng(5), 30)
        shuffled = configs.take(make_rng(6).permutation(30))
        _assert_rows_equal(
            lower_batch_memo(matmul_space, shuffled), lower_batch(matmul_space, shuffled)
        )

    def test_empty_batch_passthrough(self, matmul_space):
        out = lower_batch_memo(matmul_space, [])
        assert len(out) == 0

    def test_clear_caches_clears_memo(self, matmul_space):
        """The memo lowering does keep — the space plan — goes with
        ``clear_caches``, and lowering after the drop is unchanged."""
        configs = random_batch(matmul_space, make_rng(11), 6)
        first = lower_batch_memo(matmul_space, configs)
        assert space_plan.cache_info().currsize > 0
        clear_caches()
        assert space_plan.cache_info().currsize == 0
        _assert_rows_equal(lower_batch_memo(matmul_space, configs), first)


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
        """Programs' rows concatenated in two parts, or all at once: the batch."""
        configs = random_population(matmul_space, make_rng(15), 12)
        batch = lower_batch(matmul_space, configs)
        rows = [batch.program(i).row for i in range(len(batch))]
        joined = CandidateBatch.concat(
            [CandidateBatch.concat(rows[:5]), CandidateBatch.concat(rows[5:])]
        )
        _assert_rows_equal(joined, CandidateBatch.concat(rows))
        _assert_rows_equal(joined, batch)
