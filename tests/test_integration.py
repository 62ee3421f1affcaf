"""Integration tests: the paper's headline claims, end to end.

Each test runs a miniature version of a core experiment and asserts the
qualitative result the paper reports.  These are the guardrails that
the reproduction keeps telling the same story as the paper.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from repro import api
from repro.config import SearchConfig, TrainConfig
from repro.experiments import common, e2e
from repro.experiments.common import get_scale, run_tuning
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
        out[method] = run_tuning(method, r50_subs, "a100", scale, rounds=10)
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

    def test_every_fig7_geomean_speedup_exceeds_one(self):
        """Figure 7: every Pruner variant reaches each baseline's best
        sooner, on every network.  The numbers are
        ``fixtures/paper_golden.json``, which ``test_paper_golden.py``
        keeps equal to today's runs."""
        golden = json.loads(
            (Path(__file__).parent / "fixtures" / "paper_golden.json").read_text()
        )
        geomean = golden["geomean"]
        assert len(geomean) == 4
        for pair, value in geomean.items():
            assert float.fromhex(value) > 1.0, pair
        for net, pairs in golden["speedups"].items():
            for pair, value in pairs.items():
                assert math.isfinite(float.fromhex(value)), (net, pair)

    def test_a_missed_target_fails_the_fig7_geomean(self):
        """A network where the fast method never reaches the baseline's
        final latency is a miss: listed, and the pair's geomean is NaN
        rather than a mean over the networks that did reach it."""

        def fake_run(method, subgraphs, device, scale, **kwargs):
            never = method == "pruner" and subgraphs == ["vit"]
            return SimpleNamespace(
                final_latency=1.0,
                clock=SimpleNamespace(total=100.0),
                time_to=lambda target: math.inf if never else 50.0,
            )

        with mock.patch.object(e2e, "run_tuning", fake_run), mock.patch.object(
            e2e, "network_tasks", lambda net, top_k: [net]
        ):
            out = e2e.search_time_speedups("smoke", ("resnet50", "vit"))
        assert math.isnan(out["geomean"]["pruner_vs_ansor"])
        assert out["missed"]["pruner_vs_ansor"] == ["vit"]
        assert out["geomean"]["moa-pruner_vs_ansor"] == pytest.approx(2.0)
        assert out["missed"]["moa-pruner_vs_ansor"] == []


class TestRunMemo:
    """A run is fixed by its inputs, so each distinct run happens once."""

    @pytest.fixture
    def build_tuner(self, monkeypatch):
        monkeypatch.setattr(common, "_RUNS", {})
        with mock.patch.object(api, "build_tuner", wraps=api.build_tuner) as build:
            yield build

    def test_equal_inputs_build_one_tuner(self, build_tuner):
        subs, scale = network_tasks("bert_tiny", top_k=1), get_scale("smoke")
        first = run_tuning("ansor", subs, "a100", scale, rounds=1)
        again = run_tuning("ansor", list(subs), "a100", scale, rounds=1)
        assert again is first
        assert build_tuner.call_count == 1

    def test_a_scale_is_keyed_by_value_not_name(self, build_tuner):
        """Two scales may share a name (the paper bench has three
        ``lite-wide`` ones); a different search is a different run."""
        subs, smoke = network_tasks("bert_tiny", top_k=1), get_scale("smoke")
        narrow, wide = (
            replace(smoke, name="lite-wide", search=replace(SEARCH, population=p))
            for p in (16, 32)
        )
        run_tuning("ansor", subs, "a100", narrow, rounds=1)
        run_tuning("ansor", subs, "a100", wide, rounds=1)
        assert build_tuner.call_count == 2


class TestCrossPlatform:
    def test_moa_beats_online_early(self, r50_subs):
        """Section 4.3: MoA's siamese init pays off in early rounds."""
        scale = get_scale("smoke")
        online = run_tuning("pruner", r50_subs, "a100", scale, rounds=10)
        moa = run_tuning("moa-pruner", r50_subs, "a100", scale, rounds=10)
        half = len(online.curve) // 2
        online_half = online.curve[half].latency
        moa_half = moa.curve[half].latency
        if math.isfinite(online_half) and math.isfinite(moa_half):
            assert moa_half <= online_half * 1.25


class TestDraftVerifyMechanics:
    def test_verified_measurements_beat_random_measurements(self):
        """Measuring PaCM-verified drafted candidates beats measuring
        random candidates, at equal trial counts."""
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
