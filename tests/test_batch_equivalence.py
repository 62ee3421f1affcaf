"""Equivalence suite: the batched pipeline vs the scalar reference path.

The batched candidate pipeline (``repro.schedule.batch`` and every
consumer of it) must be *bit-identical* to the scalar implementations:
same lowered fields, same draft-model scores, same feature rows, same
model predictions, same proposed candidates and clock charges.  These
tests pin that contract across workload classes (tiled / TensorCore /
flat), devices, and random configurations.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import SearchConfig
from repro.core.analyzer import (
    SymbolBasedAnalyzer,
    is_launchable,
    is_launchable_mask,
)
from repro.core.symbols import extract_symbols, extract_symbols_batch
from repro.costmodel import GBDTModel, PaCM, TenSetMLP, TLPModel
from repro.costmodel.base import RandomModel
from repro.features.dataflow import dataflow_features, dataflow_tensor_batch
from repro.features.primitives import primitive_features, primitive_tensor_batch
from repro.features.statement import statement_features, statement_matrix_batch
from repro.hardware.device import get_device
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower
from repro.schedule.batch import BLOCK_KINDS, ConfigBatch, lower_batch
from repro.schedule.sampler import random_batch, random_population
from repro.schedule.mutate import crossover_pairs, mutate_batch
from repro.search import PrunerPolicy, RecordLog, TuningRecord
from repro.search.task import TuningTask
from repro.timemodel import SimClock

WORKLOADS = [
    pytest.param(ops.matmul(256, 256, 256), False, id="matmul"),
    pytest.param(ops.conv2d(1, 32, 28, 28, 64, 3), False, id="conv2d"),
    pytest.param(ops.matmul(128, 128, 128, dtype="float16"), True, id="tensorcore"),
    pytest.param(ops.elementwise((64, 128), n_inputs=2), False, id="elementwise"),
    pytest.param(ops.pool2d(1, 32, 28, 28, 2, 2), False, id="pool"),
]

_PROG_FIELDS = (
    "n_blocks",
    "vthreads",
    "acc_regs",
    "reg_elems",
    "thread_compute",
    "smem_elems",
    "traffic_elems",
    "grid",
    "trans_span",
    "flops",
    "unroll",
    "vector",
    "splitk",
)


def _space_and_configs(wl, tensorcore, n=60, seed=0):
    space = generate_sketch(wl, tensorcore=tensorcore, allow_splitk=tensorcore)
    configs = random_population(space, make_rng(seed), n)
    return space, configs


class TestLowerBatch:
    @pytest.mark.parametrize("wl,tc", WORKLOADS)
    def test_fields_match_scalar_lower(self, wl, tc):
        """Property test: lower_batch == lower on random configs."""
        space, configs = _space_and_configs(wl, tc)
        batch = lower_batch(space, configs)
        for i, cfg in enumerate(configs):
            prog = lower(space, cfg)
            assert batch.threads[i] == prog.threads_per_block
            for name in _PROG_FIELDS:
                assert float(getattr(batch, name)[i]) == float(getattr(prog, name)), (
                    f"{wl.name}[{i}].{name}"
                )

    @pytest.mark.parametrize("wl,tc", WORKLOADS)
    def test_blocks_match_scalar_lower(self, wl, tc):
        space, configs = _space_and_configs(wl, tc, n=25)
        batch = lower_batch(space, configs)
        for i, cfg in enumerate(configs):
            prog = lower(space, cfg)
            for b, blk in enumerate(prog.blocks):
                assert BLOCK_KINDS[batch.blocks.kind[i, b]] == blk.kind
                assert batch.blocks.src[i, b] == blk.src_level
                assert batch.blocks.dst[i, b] == blk.dst_level
                assert batch.blocks.traffic[i, b] == blk.traffic_elems
                assert batch.blocks.alloc[i, b] == blk.alloc_elems
                assert batch.blocks.reuse[i, b] == blk.reuse
                assert batch.blocks.span[i, b] == blk.innermost_span
                assert batch.blocks.compute[i, b] == blk.compute_ops

    def test_roundtrip_configs(self, matmul_space):
        configs = random_population(matmul_space, make_rng(3), 40)
        batch = ConfigBatch.from_configs(matmul_space, configs)
        assert batch.configs() == configs
        rebuilt = ConfigBatch(
            matmul_space, batch.factors, batch.unroll, batch.vector, batch.splitk
        )
        assert [c.key for c in rebuilt.configs()] == [c.key for c in configs]

    def test_invalid_config_rejected(self, matmul_space):
        from repro.errors import ScheduleError
        from repro.schedule.space import ScheduleConfig

        bad = ScheduleConfig.from_map(
            {"i": (1, 1, 1, 1, 128), "j": (1, 1, 1, 1, 128), "k": (1, 1, 999)}
        )
        with pytest.raises(ScheduleError):
            lower_batch(matmul_space, [bad])


class TestAnalyzerBatch:
    @pytest.mark.parametrize("wl,tc", WORKLOADS)
    @pytest.mark.parametrize("device", ["a100", "orin", "t4"])
    def test_scores_bit_identical(self, wl, tc, device):
        """Same scores (incl. -inf launch mask) on every device."""
        dev = get_device(device)
        space, configs = _space_and_configs(wl, tc)
        analyzer = SymbolBasedAnalyzer(dev)
        batch = lower_batch(space, configs)
        batch_scores = analyzer.score_batch(batch)
        mask = is_launchable_mask(batch, dev)
        for i, cfg in enumerate(configs):
            prog = lower(space, cfg)
            assert bool(mask[i]) == is_launchable(prog, dev)
            assert batch_scores[i] == analyzer.score(prog)

    def test_scores_match_without_tensorcores(self):
        """k80 has no TensorCores: the batch path must not ask for their peak."""
        dev = get_device("k80")
        analyzer = SymbolBasedAnalyzer(dev)
        for wl in (ops.matmul(256, 256, 256), ops.conv2d(1, 32, 28, 28, 64, 3)):
            space, configs = _space_and_configs(wl, False)
            scores = analyzer.score_batch(lower_batch(space, configs))
            assert np.isfinite(scores).any()
            assert scores.tolist() == [analyzer.score(lower(space, c)) for c in configs]

    def test_symbols_match(self, matmul_space):
        configs = random_population(matmul_space, make_rng(1), 30)
        batch = lower_batch(matmul_space, configs)
        sb = extract_symbols_batch(batch)
        for i, cfg in enumerate(configs):
            assert sb.row(i) == extract_symbols(lower(matmul_space, cfg))

    def test_ablation_switches_match(self, matmul_space, a100):
        configs = random_population(matmul_space, make_rng(2), 30)
        batch = lower_batch(matmul_space, configs)
        for use_c, use_m in ((False, True), (True, False)):
            analyzer = SymbolBasedAnalyzer(
                a100, use_compute_penalty=use_c, use_memory_penalty=use_m
            )
            got = analyzer.score_batch(batch)
            want = [analyzer.score(lower(matmul_space, c)) for c in configs]
            assert got.tolist() == want


class TestFeatureBatch:
    @pytest.mark.parametrize("wl,tc", WORKLOADS)
    def test_statement_rows_match(self, wl, tc):
        space, configs = _space_and_configs(wl, tc, n=30)
        batch = lower_batch(space, configs)
        rows = statement_matrix_batch(batch)
        for i, cfg in enumerate(configs):
            np.testing.assert_array_equal(
                rows[i], statement_features(lower(space, cfg))
            )

    @pytest.mark.parametrize("wl,tc", WORKLOADS)
    def test_dataflow_rows_match(self, wl, tc):
        space, configs = _space_and_configs(wl, tc, n=30)
        batch = lower_batch(space, configs)
        rows = dataflow_tensor_batch(batch)
        for i, cfg in enumerate(configs):
            np.testing.assert_array_equal(
                rows[i], dataflow_features(lower(space, cfg))
            )

    @pytest.mark.parametrize("wl,tc", WORKLOADS)
    def test_primitive_rows_match(self, wl, tc):
        space, configs = _space_and_configs(wl, tc, n=30)
        batch = lower_batch(space, configs)
        rows = primitive_tensor_batch(batch)
        for i, cfg in enumerate(configs):
            np.testing.assert_array_equal(
                rows[i], primitive_features(lower(space, cfg))
            )

    def test_feature_cache_counts_duplicates_once(self, matmul_space):
        from repro.features.cache import FEATURE_ROWS

        FEATURE_ROWS.clear()
        configs = random_population(matmul_space, make_rng(41), 4)
        doubled = configs + configs  # duplicate keys within one batch
        statement_matrix_batch(lower_batch(matmul_space, doubled))
        assert len(FEATURE_ROWS) == 4

    def test_feature_cache_round_trips(self, matmul_space):
        """Second fetch of the same candidates comes from the row cache."""
        from repro.features.cache import FEATURE_ROWS

        FEATURE_ROWS.clear()
        configs = random_population(matmul_space, make_rng(5), 20)
        batch = lower_batch(matmul_space, configs)
        first = statement_matrix_batch(batch)
        assert len(FEATURE_ROWS) == 20
        again = statement_matrix_batch(lower_batch(matmul_space, configs))
        np.testing.assert_array_equal(first, again)
        assert len(FEATURE_ROWS) == 20  # no new rows encoded


class TestCostModelBatch:
    @pytest.mark.parametrize(
        "model_factory",
        [TenSetMLP, PaCM, TLPModel, GBDTModel],
        ids=["mlp", "pacm", "tlp", "gbdt"],
    )
    def test_predict_batch_matches_predict(self, model_factory, matmul_space, a100):
        space = matmul_space
        configs = random_population(space, make_rng(7), 40)
        progs = [lower(space, c) for c in configs]
        model = model_factory()
        lat = 1e-3 * (1.0 + make_rng(8).random(len(progs)))
        model.fit(progs, lat, ["t"] * len(progs), rng=make_rng(9))
        batch = lower_batch(space, configs)
        np.testing.assert_array_equal(model.predict_batch(batch), model.predict(progs))

    def test_random_model_draw_counts_align(self, matmul_space):
        configs = random_population(matmul_space, make_rng(0), 10)
        batch = lower_batch(matmul_space, configs)
        a = RandomModel(seed=3).predict_batch(batch)
        b = RandomModel(seed=3).predict([lower(matmul_space, c) for c in configs])
        np.testing.assert_array_equal(a, b)


class TestGAOperatorProperties:
    @pytest.mark.parametrize("wl,tc", WORKLOADS)
    def test_mutate_batch_stays_in_space(self, wl, tc):
        space, configs = _space_and_configs(wl, tc, n=40)
        batch = ConfigBatch.from_configs(space, configs)
        rng = make_rng(11)
        for _ in range(5):
            batch = mutate_batch(batch, space, rng)
            for cfg in batch.configs():
                space.validate(cfg)

    @pytest.mark.parametrize("wl,tc", WORKLOADS)
    def test_crossover_pairs_stay_in_space(self, wl, tc):
        space, configs = _space_and_configs(wl, tc, n=40)
        batch = ConfigBatch.from_configs(space, configs)
        rng = make_rng(12)
        left = rng.integers(0, len(batch), size=64)
        right = rng.integers(0, len(batch), size=64)
        children = crossover_pairs(batch, left, right, space, rng)
        for cfg in children.configs():
            space.validate(cfg)

    def test_scalar_wrappers_delegate_to_batch(self, matmul_space):
        """mutate/crossover(config) == the batch path with n == 1."""
        from repro.schedule.mutate import crossover, mutate

        configs = random_population(matmul_space, make_rng(13), 2)
        one = mutate(configs[0], matmul_space, make_rng(14))
        via_batch = mutate_batch(
            ConfigBatch.from_configs(matmul_space, [configs[0]]),
            matmul_space,
            make_rng(14),
        ).config(0)
        assert one.key == via_batch.key
        child = crossover(configs[0], configs[1], matmul_space, make_rng(15))
        via_batch = crossover_pairs(
            ConfigBatch.from_configs(matmul_space, configs),
            np.array([0]),
            np.array([1]),
            matmul_space,
            make_rng(15),
        ).config(0)
        assert child.key == via_batch.key

    def test_random_batch_unique_and_valid(self, matmul_space):
        batch = random_batch(matmul_space, make_rng(16), 64)
        keys = batch.row_keys()
        assert len(keys) == len(set(keys)) == 64
        for cfg in batch.configs():
            matmul_space.validate(cfg)

    def test_sampling_deterministic(self, matmul_space):
        a = random_batch(matmul_space, make_rng(17), 32).row_keys()
        b = random_batch(matmul_space, make_rng(17), 32).row_keys()
        assert a == b


def _propose(policy, records, rng):
    """One round's measurement batch as scalar programs."""
    batch = policy.propose_batch(records, rng)
    return [] if batch is None else [batch.program(i) for i in range(len(batch))]


class TestPolicyEquivalence:
    """The batched PrunerPolicy verify stage vs a scalar mirror of it."""

    def _task(self, device="a100"):
        return TuningTask.create(ops.matmul(256, 256, 256), get_device(device))

    def _seed_records(self, task, policy, rng):
        records = RecordLog()
        for i, prog in enumerate(_propose(policy, records, rng)):
            records.add(TuningRecord(task.key, prog, 1e-3 * (i + 1), 0.0, 0))
        return records

    @pytest.mark.parametrize("device", ["a100", "orin"])
    def test_pruner_proposals_match_scalar_mirror(self, device):
        """Same drafted set -> same predictions -> same measured batch.

        The mirror repeats the verify stage with the *scalar* entry
        points (per-program lower / predict / select by
        ``ScheduleConfig.key``, where the policy selects by row bytes)
        on an identical RNG stream; proposals and clock charges must
        agree exactly.
        """
        search = SearchConfig(population=32, ga_steps=2, spec_size=24, measure_per_round=6)
        task = self._task(device)
        model = GBDTModel()
        clock = SimClock()
        policy = PrunerPolicy(task, model, search=search, clock=clock)
        records = self._seed_records(task, policy, make_rng(0))
        model.fit(*records.training_data(), rng=make_rng(1))

        # --- batched proposal ---
        exploration_before = clock.elapsed("exploration")
        batched = _propose(policy, records, make_rng(2))
        batched_charge = clock.elapsed("exploration") - exploration_before

        # --- scalar mirror on an identical RNG stream ---
        rng = make_rng(2)
        seeds = [p.config for p in records.best_configs(task.key, k=5)]
        result = policy.explorer.explore(task.space, rng, seeds=seeds)
        mirror_clock = SimClock()
        mirror_clock.charge_sa(result.n_evals)
        draft_configs = result.spec.configs()
        n_random = int(round(search.random_fraction * search.spec_size))
        draft_configs += random_population(task.space, rng, n_random)
        progs = [lower(task.space, c) for c in draft_configs]
        progs = [p for p in progs if is_launchable(p, task.device)]
        mirror_clock.charge_inference(model.feature_kind, model.kind, len(progs))
        scores = model.predict(progs)

        k = search.measure_per_round
        n_rand = max(0, int(round(k * search.eps_greedy))) or 1
        order = np.argsort(-np.asarray(scores))
        picked, seen = [], set()
        for i in order:
            key = progs[int(i)].config.key
            if key in seen or records.already_measured(task.key, key):
                continue
            seen.add(key)
            picked.append(progs[int(i)])
            if len(picked) >= k - n_rand:
                break
        pool = [
            p
            for p in progs
            if p.config.key not in seen
            and not records.already_measured(task.key, p.config.key)
        ]
        if n_rand and pool:
            extra = rng.choice(len(pool), size=min(n_rand, len(pool)), replace=False)
            picked += [pool[int(i)] for i in extra]
        mirror = picked[:k]

        assert [p.config.key for p in batched] == [p.config.key for p in mirror]
        assert batched_charge == mirror_clock.elapsed("exploration")

    def test_propose_deterministic(self):
        search = SearchConfig(population=24, ga_steps=2, spec_size=16, measure_per_round=5)
        task = self._task()
        runs = []
        for _ in range(2):
            policy = PrunerPolicy(task, RandomModel(seed=1), search=search)
            batch = policy.propose_batch(RecordLog(), make_rng(4))
            runs.append([c.key for c in batch.configs.configs()])
        assert runs[0] == runs[1]


def _select_top(policy, batch, scores, records, rng):
    """The picked rows of ``_select_top_batch`` as scalar programs."""
    picked = policy._select_top_batch(batch, scores, records, rng)
    return [] if picked is None else [picked.program(i) for i in range(len(picked))]


def _config_keys(batch):
    return [c.key for c in batch.configs.configs()]


class TestSelectTopEpsilon:
    def test_small_rounds_keep_one_random_slot(self, a100):
        """eps_greedy > 0 must never round down to zero exploration."""
        search = SearchConfig(
            population=24, ga_steps=2, spec_size=16, measure_per_round=4, eps_greedy=0.05
        )
        # int(round(4 * 0.05)) == 0 before the fix
        task = TuningTask.create(ops.matmul(128, 128, 128), a100)
        policy = PrunerPolicy(task, RandomModel(), search=search)
        configs = random_population(task.space, make_rng(20), 64)
        batch = policy._lower_valid_batch(configs)
        scores = np.arange(len(batch), dtype=float)
        records = RecordLog()
        rng_fixed = make_rng(21)
        picked = _select_top(policy, batch, scores, records, rng_fixed)
        assert len(picked) == 4
        keys = _config_keys(batch)
        by_score = [keys[i] for i in np.argsort(-scores)[:4]]
        picked_keys = [p.config.key for p in picked]
        # one slot went to a random (non-greedy) candidate
        assert picked_keys[:3] == by_score[:3]
        assert len(set(picked_keys)) == 4

    def test_eps_zero_stays_pure_greedy(self, a100):
        search = SearchConfig(
            population=24, ga_steps=2, spec_size=16, measure_per_round=4, eps_greedy=0.0
        )
        task = TuningTask.create(ops.matmul(128, 128, 128), a100)
        policy = PrunerPolicy(task, RandomModel(), search=search)
        configs = random_population(task.space, make_rng(22), 64)
        batch = policy._lower_valid_batch(configs)
        scores = np.arange(len(batch), dtype=float)
        picked = _select_top(policy, batch, scores, RecordLog(), make_rng(23))
        keys = _config_keys(batch)
        assert [p.config.key for p in picked] == [
            keys[i] for i in np.argsort(-scores)[:4]
        ]

    def test_single_slot_rounds_explore_with_probability_eps(self, a100):
        """Regression: k == 1 rounds used to be never-exploratory (the
        >= 1 random-slot guard only fired for k > 1).  The single slot
        now goes random with probability eps — sometimes, not always."""
        search = SearchConfig(
            population=24, ga_steps=2, spec_size=16, measure_per_round=1,
            eps_greedy=0.3,
        )
        task = TuningTask.create(ops.matmul(128, 128, 128), a100)
        policy = PrunerPolicy(task, RandomModel(), search=search)
        configs = random_population(task.space, make_rng(24), 64)
        batch = policy._lower_valid_batch(configs)
        scores = np.arange(len(batch), dtype=float)
        keys = _config_keys(batch)
        greedy_top = keys[int(np.argsort(-scores)[0])]
        picks = []
        for seed in range(60):
            picked = _select_top(policy, batch, scores, RecordLog(), make_rng(seed))
            assert len(picked) == 1
            picks.append(picked[0].config.key)
        explored = sum(1 for key in picks if key != greedy_top)
        # eps = 0.3 over 60 deterministic draws: exploratory sometimes,
        # greedy most of the time — never all-one-or-the-other
        assert 0 < explored < len(picks) // 2

    def test_single_slot_high_eps_still_exploits(self, a100):
        """Regression: for k == 1, eps in [0.5, 1) used to round to a
        permanent random slot — greedy selection must still happen with
        probability 1 - eps."""
        search = SearchConfig(
            population=24, ga_steps=2, spec_size=16, measure_per_round=1,
            eps_greedy=0.6,
        )
        task = TuningTask.create(ops.matmul(128, 128, 128), a100)
        policy = PrunerPolicy(task, RandomModel(), search=search)
        configs = random_population(task.space, make_rng(26), 64)
        batch = policy._lower_valid_batch(configs)
        scores = np.arange(len(batch), dtype=float)
        keys = _config_keys(batch)
        greedy_top = keys[int(np.argsort(-scores)[0])]
        greedy_picks = sum(
            _select_top(policy, batch, scores, RecordLog(), make_rng(seed))[0].config.key
            == greedy_top
            for seed in range(60)
        )
        # ~40% of rounds stay greedy at eps = 0.6: never zero, never all
        assert 0 < greedy_picks < 60

    def test_single_slot_eps_one_is_always_random(self, a100):
        """eps = 1.0 rounds to a full random slot even at k == 1, and no
        greedy pick may leak into the batch."""
        search = SearchConfig(
            population=24, ga_steps=2, spec_size=16, measure_per_round=1,
            eps_greedy=1.0,
        )
        task = TuningTask.create(ops.matmul(128, 128, 128), a100)
        policy = PrunerPolicy(task, RandomModel(), search=search)
        configs = random_population(task.space, make_rng(25), 64)
        batch = policy._lower_valid_batch(configs)
        scores = np.arange(len(batch), dtype=float)
        keys = _config_keys(batch)
        greedy_top = keys[int(np.argsort(-scores)[0])]
        picks = {
            _select_top(policy, batch, scores, RecordLog(), make_rng(seed))[0].config.key
            for seed in range(20)
        }
        assert len(picks) > 1  # actually random across rngs
        assert picks != {greedy_top}


class TestClearCaches:
    def test_registry_clears_everything(self, matmul_space):
        from repro.cache import clear_caches, registered_caches
        from repro.features.cache import FEATURE_ROWS

        configs = random_population(matmul_space, make_rng(30), 8)
        statement_matrix_batch(lower_batch(matmul_space, configs))
        assert len(FEATURE_ROWS) > 0
        assert "schedule.memo.LOWERED_ROWS" in registered_caches()
        assert "features.cache.FEATURE_ROWS" in registered_caches()
        cleared = clear_caches()
        assert cleared >= 8
        assert len(FEATURE_ROWS) == 0
        # pipeline still works after a full cache drop
        scores = SymbolBasedAnalyzer(get_device("a100")).score_batch(
            lower_batch(matmul_space, configs)
        )
        assert np.isfinite(scores).any() or (scores == -math.inf).all()
