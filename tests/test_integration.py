"""Integration tests: the paper's headline claims, end to end.

Each test runs a miniature version of a core experiment and asserts the
qualitative result the paper reports.  These are the guardrails that
the reproduction keeps telling the same story as the paper.
"""

from __future__ import annotations

import math

import pytest

from repro import api
from repro.config import SearchConfig, TrainConfig
from repro.experiments.common import get_scale, pretrained_params, run_tuning
from repro.ir import ops
from repro.ir.partition import SubgraphTask
from repro.timemodel import EXPLORATION
from repro.workloads import network_tasks

SEARCH = SearchConfig(population=32, ga_steps=3, spec_size=24, measure_per_round=8)
TRAIN = TrainConfig(epochs=4)


@pytest.fixture(scope="module")
def r50_subs():
    return network_tasks("resnet50", top_k=3)


@pytest.fixture(scope="module")
def results(r50_subs):
    """Ansor vs Pruner vs MoA-Pruner on the same tasks/seed."""
    scale = get_scale("smoke")
    out = {}
    for method in ("ansor", "pruner", "moa-pruner"):
        out[method] = run_tuning(
            method, r50_subs, "a100", scale, corpus_tag="integ", rounds=10
        )
    return out


class TestHeadlineClaims:
    def test_pruner_converges_at_least_as_low_as_ansor(self, results):
        assert (
            min(results["pruner"].final_latency, results["moa-pruner"].final_latency)
            <= results["ansor"].final_latency * 1.10
        )

    def test_pruner_spends_less_on_exploration(self, results):
        """Table 1/7: draft-then-verify slashes cost-model inference."""
        assert results["pruner"].clock.elapsed(EXPLORATION) < results[
            "ansor"
        ].clock.elapsed(EXPLORATION)

    def test_pruner_reaches_ansor_quality_faster(self, results):
        target = results["ansor"].final_latency
        t = results["pruner"].time_to(target)
        assert math.isfinite(t)
        assert t < results["ansor"].clock.total

    def test_all_tasks_got_valid_schedules(self, results):
        for result in results.values():
            assert all(math.isfinite(v) for v in result.best.values())


class TestCrossPlatform:
    def test_moa_beats_online_early(self, r50_subs):
        """Section 4.3: MoA's siamese init pays off in early rounds."""
        scale = get_scale("smoke")
        online = run_tuning("pruner", r50_subs, "a100", scale, "integ2", rounds=10)
        moa = run_tuning("moa-pruner", r50_subs, "a100", scale, "integ2", rounds=10)
        half = len(online.curve) // 2
        online_half = online.curve[half].latency
        moa_half = moa.curve[half].latency
        if math.isfinite(online_half) and math.isfinite(moa_half):
            assert moa_half <= online_half * 1.25


class TestDraftVerifyMechanics:
    def test_verified_measurements_beat_random_measurements(self):
        """Measuring PaCM-verified drafted candidates beats measuring
        random candidates, at equal trial counts."""
        import numpy as np

        from repro.hardware.device import get_device
        from repro.hardware.simulator import GroundTruthSimulator
        from repro.schedule import generate_sketch, lower, random_config
        from repro.rng import make_rng

        wl = ops.matmul(512, 512, 512)
        sub = [SubgraphTask(wl, 1)]
        result = api.tune_subgraphs(
            "pruner", sub, "a100", rounds=6, search=SEARCH, train=TRAIN
        )
        sim = GroundTruthSimulator(get_device("a100"))
        rng = make_rng(99)
        space = generate_sketch(wl)
        random_best = min(
            sim.latency(lower(space, random_config(space, rng)))
            for _ in range(result.total_trials)
        )
        assert result.final_latency <= random_best * 1.05

    def test_pruner_tunes_on_a_device_without_tensorcores(self):
        """The draft model's batch path once asked k80 for its TensorCore peak."""
        subs = [SubgraphTask(ops.matmul(256, 256, 256), 1)]
        result = api.tune_subgraphs("pruner", subs, "k80", rounds=2, scale="smoke")
        assert math.isfinite(result.final_latency) and result.total_trials > 0

    def test_tensorcore_integration(self):
        """Section 6.4: fp16 matmuls tune through the WMMA template."""
        subs = [SubgraphTask(ops.matmul(128, 768, 768, dtype="float16"), 2)]
        result = api.tune_subgraphs(
            "pruner-tc", subs, "a100", rounds=5, search=SEARCH, train=TRAIN
        )
        fp32 = api.tune_subgraphs(
            "pruner",
            [SubgraphTask(ops.matmul(128, 768, 768), 2)],
            "a100",
            rounds=5,
            search=SEARCH,
            train=TRAIN,
        )
        # TensorCores give a clear speedup on eligible matmuls.
        assert result.final_latency < fp32.final_latency
