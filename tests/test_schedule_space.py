"""Tests for schedule spaces, configs, sampling and mutation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import ConfigBatch, count_factorizations, generate_sketch, random_config
from repro.schedule.mutate import crossover_pairs, mutate_batch
from repro.schedule.sampler import random_population, sample_factorizations
from repro.schedule.space import divisors


class TestFactorizationCounting:
    def test_divisors(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(1) == (1,)
        assert divisors(7) == (1, 7)

    def test_count_small(self):
        # 4 = 2^2 into 2 parts: C(3,1) = 3 -> (1,4),(2,2),(4,1)
        assert count_factorizations(4, 2) == 3

    def test_count_one_part(self):
        assert count_factorizations(360, 1) == 1

    @given(
        extent=st.integers(min_value=1, max_value=64),
        parts=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40)
    def test_count_matches_enumeration(self, extent, parts):
        def enumerate_count(n, k):
            if k == 1:
                return 1
            return sum(enumerate_count(n // d, k - 1) for d in divisors(n))

        assert count_factorizations(extent, parts) == enumerate_count(extent, parts)


class TestSampling:
    @given(
        extent=st.sampled_from([1, 2, 12, 60, 128, 224, 3072]),
        parts=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60)
    def test_sampled_factorization_is_valid(self, extent, parts, seed):
        f = sample_factorizations(make_rng(seed), extent, parts, 1)[0]
        assert len(f) == parts
        assert math.prod(f) == extent
        assert all(x >= 1 for x in f)

    def test_random_config_valid(self, matmul_space, rng):
        for _ in range(50):
            cfg = random_config(matmul_space, rng)
            matmul_space.validate(cfg)  # should not raise

    def test_random_population_dedupes(self, matmul_space, rng):
        pop = random_population(matmul_space, rng, 64)
        keys = [c.key for c in pop]
        assert len(keys) == len(set(keys))


class TestSpace:
    def test_space_size_is_large_for_gpu_matmul(self):
        space = generate_sketch(ops.matmul(512, 512, 512))
        assert space.size() > 1e8  # billions-scale space, paper Section 1

    def test_validate_rejects_wrong_product(self, matmul_space):
        cfg = random_config(matmul_space, make_rng(0))
        bad = cfg.with_tile("i", (1, 1, 1, 1, 3))
        with pytest.raises(ScheduleError):
            matmul_space.validate(bad)

    def test_validate_rejects_unknown_axis(self, matmul_space):
        cfg = random_config(matmul_space, make_rng(0))
        bad = cfg.with_tile("zz", (1, 1, 1, 1, 128))
        with pytest.raises(ScheduleError):
            matmul_space.validate(bad)

    def test_elementwise_sketch_is_flat(self):
        space = generate_sketch(ops.elementwise((1024, 1024)))
        assert not space.use_shared
        assert all(s.parts == 2 for s in space.spatial_splits)

    def test_config_key_roundtrip_identity(self, matmul_space):
        cfg = random_config(matmul_space, make_rng(3))
        same = random_config(matmul_space, make_rng(3))
        assert cfg.key == same.key
        assert cfg == same


class TestMutation:
    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=50)
    def test_mutation_stays_in_space(self, seed):
        wl = ops.matmul(128, 128, 128)
        space = generate_sketch(wl)
        rng = make_rng(seed)
        batch = ConfigBatch.from_configs(space, [random_config(space, rng)])
        for _ in range(5):
            batch = mutate_batch(batch, space, rng)
            space.validate(batch.config(0))

    def test_crossover_stays_in_space(self, matmul_space):
        rng = make_rng(1)
        a = random_config(matmul_space, rng)
        b = random_config(matmul_space, rng)
        parents = ConfigBatch.from_configs(matmul_space, [a, b])
        child = crossover_pairs(parents, np.array([0]), np.array([1]), matmul_space, rng)
        matmul_space.validate(child.config(0))

    def test_mutation_changes_something_eventually(self, matmul_space):
        rng = make_rng(7)
        cfg = random_config(matmul_space, rng)
        batch = ConfigBatch.from_configs(matmul_space, [cfg])
        assert any(
            mutate_batch(batch, matmul_space, rng).config(0).key != cfg.key for _ in range(10)
        )


class TestTensorCoreSpace:
    def test_sketch_requires_fp16(self):
        with pytest.raises(ScheduleError):
            generate_sketch(ops.matmul(128, 128, 128), tensorcore=True)

    def test_samples_satisfy_wmma_constraint(self):
        wl = ops.matmul(256, 256, 256, dtype="float16")
        space = generate_sketch(wl, tensorcore=True)
        rng = make_rng(0)
        for _ in range(30):
            cfg = random_config(space, rng)
            for axis in ("i", "j"):
                f = cfg.factors(axis)
                assert (f[2] * f[3] * f[4]) % 4 == 0  # per-lane fragment share
            fk = cfg.factors("k")
            assert (fk[1] * fk[2]) % 16 == 0

    def test_tensorcore_mutation_preserves_constraint(self):
        wl = ops.matmul(256, 256, 256, dtype="float16")
        space = generate_sketch(wl, tensorcore=True)
        rng = make_rng(5)
        batch = ConfigBatch.from_configs(space, [random_config(space, rng)])
        for _ in range(20):
            batch = mutate_batch(batch, space, rng)
            space.validate(batch.config(0))

    def test_non_multiple_extent_rejected(self):
        wl = ops.matmul(100, 128, 128, dtype="float16")
        with pytest.raises(ScheduleError):
            generate_sketch(wl, tensorcore=True)
