"""Tests for the Symbol-based Analyzer (draft model) and LSE."""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import spearmanr

from repro.config import SearchConfig
from repro.core.analyzer import SymbolBasedAnalyzer, is_launchable
from repro.core.lse import LatentScheduleExplorer
from repro.hardware.device import get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower, lower_batch, random_config
from repro.schedule.space import ScheduleConfig


class TestAnalyzer:
    def test_latency_positive_and_finite(self, matmul_space, a100, rng):
        sa = SymbolBasedAnalyzer(a100)
        for _ in range(20):
            lat = sa.latency(lower(matmul_space, random_config(matmul_space, rng)))
            assert math.isfinite(lat) and lat > 0

    def test_unlaunchable_scores_minus_inf(self, a100):
        space = generate_sketch(ops.matmul(4096, 4096, 64))
        # 64x64 = 4096 threads per block: exceeds the 1024 limit.
        cfg = ScheduleConfig.from_map(
            {"i": (1, 64, 1, 1, 64), "j": (1, 64, 1, 64, 1), "k": (1, 1, 64)}
        )
        prog = lower(space, cfg)
        assert not is_launchable(prog, a100)
        assert SymbolBasedAnalyzer(a100).score(prog) == -math.inf

    def test_ablations_change_ranking(self, a100, rng):
        space = generate_sketch(ops.matmul(256, 256, 256))
        progs = [lower(space, random_config(space, rng)) for _ in range(40)]
        progs = [p for p in progs if is_launchable(p, a100)]
        full = SymbolBasedAnalyzer(a100)
        no_c = SymbolBasedAnalyzer(a100, use_compute_penalty=False)
        no_m = SymbolBasedAnalyzer(a100, use_memory_penalty=False)
        r_full = np.argsort([full.latency(p) for p in progs])
        r_noc = np.argsort([no_c.latency(p) for p in progs])
        r_nom = np.argsort([no_m.latency(p) for p in progs])
        assert not np.array_equal(r_full, r_noc) or not np.array_equal(r_full, r_nom)

    def test_analyzer_correlates_with_ground_truth(self, a100):
        """The draft model must rank roughly like the device (paper 4.1)."""
        space = generate_sketch(ops.matmul(512, 512, 512))
        sim = GroundTruthSimulator(a100)
        sa = SymbolBasedAnalyzer(a100)
        rng = make_rng(0)
        true, draft = [], []
        for _ in range(300):
            prog = lower(space, random_config(space, rng))
            r = sim.run(prog)
            if r.valid:
                true.append(r.latency)
                draft.append(sa.latency(prog))
        rho = spearmanr(true, draft).statistic
        assert rho > 0.7, f"draft model rank correlation too low: {rho:.3f}"


class TestLSE:
    def _setup(self, wl, population=64, steps=3, spec=32):
        dev = get_device("a100")
        sa = SymbolBasedAnalyzer(dev)
        lse = LatentScheduleExplorer(
            sa, SearchConfig(population=population, ga_steps=steps, spec_size=spec)
        )
        return dev, sa, lse

    def test_spec_size_respected(self):
        wl = ops.matmul(256, 256, 256)
        _, _, lse = self._setup(wl)
        res = lse.explore(generate_sketch(wl), make_rng(0))
        assert 0 < len(res.spec) <= 32

    def test_spec_sorted_by_fitness(self):
        wl = ops.matmul(256, 256, 256)
        _, _, lse = self._setup(wl)
        res = lse.explore(generate_sketch(wl), make_rng(0))
        scores = res.scores.tolist()
        assert len(scores) == len(res.spec)
        assert scores == sorted(scores, reverse=True)
        # each row carries the analyzer's own score of that candidate
        space = generate_sketch(wl)
        assert scores == lse.analyzer.score_batch(lower_batch(space, res.spec)).tolist()

    def test_spec_contains_only_launchable(self):
        wl = ops.matmul(256, 256, 256)
        dev, _, lse = self._setup(wl)
        space = generate_sketch(wl)
        res = lse.explore(space, make_rng(1))
        assert all(is_launchable(lower(space, c), dev) for c in res.spec.configs())

    def test_nothing_launchable_drafts_an_empty_batch(self):
        wl = ops.matmul(256, 256, 256)
        _, sa, lse = self._setup(wl, population=16, steps=1)
        sa.score_batch = lambda batch: np.full(len(batch), -math.inf)
        res = lse.explore(generate_sketch(wl), make_rng(0))
        assert len(res.spec) == 0 and len(res.scores) == 0
        assert res.spec.row_keys() == []
        assert res.n_evals == 16 * 2

    def test_evals_counted(self):
        wl = ops.matmul(256, 256, 256)
        _, _, lse = self._setup(wl, population=64, steps=3)
        res = lse.explore(generate_sketch(wl), make_rng(0))
        assert res.n_evals == 64 * 4  # steps + final evaluation

    def test_lse_beats_random_sampling(self):
        """Core paper claim: drafted candidates beat random exploration."""
        wl = ops.matmul(512, 512, 512)
        dev, _, lse = self._setup(wl, population=128, steps=4, spec=32)
        space = generate_sketch(wl)
        sim = GroundTruthSimulator(dev)
        res = lse.explore(space, make_rng(2))
        best_spec = sim.latency_batch(lower_batch(space, res.spec)).min()
        rng = make_rng(3)
        best_rand = min(
            sim.latency(lower(space, random_config(space, rng))) for _ in range(512)
        )
        assert best_spec <= best_rand * 1.15

    def test_deterministic_given_seed(self):
        wl = ops.matmul(256, 256, 256)
        _, _, lse = self._setup(wl)
        space = generate_sketch(wl)
        a = lse.explore(space, make_rng(9))
        b = lse.explore(space, make_rng(9))
        assert a.spec.row_keys() == b.spec.row_keys()
        assert a.scores.tolist() == b.scores.tolist()
