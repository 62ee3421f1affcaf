"""Tests for simulated-time accounting, RNG utilities and experiments."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.common import (
    get_scale,
    normalized_performance,
    print_table,
    save_results,
)
from repro.errors import ReproError
from repro.rng import make_rng, rng_for, spawn, stable_hash
from repro.timemodel import (
    EXPLORATION,
    MEASUREMENT,
    TRAINING,
    CostTable,
    SimClock,
)


class TestSimClock:
    def test_charges_accumulate(self):
        clock = SimClock()
        clock.charge(EXPLORATION, 1.0)
        clock.charge(EXPLORATION, 2.0)
        clock.charge(TRAINING, 0.5)
        assert clock.elapsed(EXPLORATION) == 3.0
        assert clock.total == 3.5

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            SimClock().charge("coffee", 1.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            SimClock().charge(EXPLORATION, -1.0)

    def test_inference_cost_model_dependent(self):
        a, b = SimClock(), SimClock()
        a.charge_inference("statement", "gbdt", 100)
        b.charge_inference("hybrid", "pacm", 100)
        assert a.elapsed(EXPLORATION) != b.elapsed(EXPLORATION)

    def test_sa_far_cheaper_than_model_inference(self):
        """The draft model's whole point (paper Section 2.3(1))."""
        a, b = SimClock(), SimClock()
        a.charge_sa(1000)
        b.charge_inference("statement", "mlp", 1000)
        assert a.elapsed(EXPLORATION) < b.elapsed(EXPLORATION) / 20

    def test_measurement_run_time_clipped(self):
        costs = CostTable()
        clock = SimClock(costs)
        clock.charge_measurement([100.0])  # a pathologically slow kernel
        assert clock.elapsed(MEASUREMENT) <= costs.measure_max_run + costs.measure_overhead + 1e-9

    def test_snapshot_is_independent(self):
        clock = SimClock()
        clock.charge(EXPLORATION, 1.0)
        snap = clock.snapshot()
        clock.charge(EXPLORATION, 1.0)
        assert snap.total == 1.0 and clock.total == 2.0


class TestRng:
    def test_stable_hash_deterministic(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)
        assert stable_hash("a", 1) != stable_hash("a", 2)

    def test_rng_for_reproducible(self):
        a = rng_for("x", "y").random(4)
        b = rng_for("x", "y").random(4)
        assert np.array_equal(a, b)

    def test_spawn_children_independent(self):
        children = spawn(make_rng(0), 3)
        values = [c.random() for c in children]
        assert len(set(values)) == 3


class TestExperimentCommon:
    def test_scales_resolve(self):
        assert get_scale("lite").name == "lite"
        assert get_scale(get_scale("smoke")).name == "smoke"
        with pytest.raises(ReproError):
            get_scale("gigantic")

    def test_full_scale_matches_paper_settings(self):
        full = get_scale("full")
        assert full.search.spec_size == 512
        assert full.rounds * full.search.measure_per_round == 2000

    def test_normalized_performance(self):
        norm = normalized_performance({"a": 1.0, "b": 2.0, "c": float("inf")})
        assert norm == {"a": 1.0, "b": 0.5, "c": 0.0}

    def test_save_results_roundtrip(self, tmp_path, monkeypatch):
        import repro.experiments.common as common

        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        path = save_results("unit", {"x": 1, "inf": float("inf")})
        assert path.exists()

    def test_pretrained_cache_key_covers_what_trained_the_file(self, tmp_path, monkeypatch):
        """A file from another recipe or revision is not served: the
        ``.npz`` of PR 0 outlived two changes of the training code."""
        import repro.experiments.common as common

        calls = []

        def fake_pretrain(model, subgraphs, device, samples_per_task, train, seed):
            calls.append((samples_per_task, train.epochs))
            return {"w": np.full(2, float(len(calls)))}

        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        monkeypatch.setattr(common, "_MEM_CACHE", {})
        monkeypatch.setattr(common.api, "pretrain_model", fake_pretrain)
        smoke = get_scale("smoke")
        stale = tmp_path / "cache" / "pacm-k80-unit-smoke-s0.npz"  # the old key
        stale.parent.mkdir()
        np.savez(stale, w=np.zeros(2))

        def load(scale):
            common._MEM_CACHE.clear()  # a new process
            return common.pretrained_params("pacm", "k80", [], scale, "unit")["w"][0]

        assert load(smoke) == 1.0  # trained, not the stale zeros
        assert load(smoke) == 1.0 and len(calls) == 1  # served from disk
        longer = replace(smoke, offline_train=replace(smoke.offline_train, epochs=11))
        assert load(longer) == 2.0
        assert load(replace(smoke, pretrain_samples=61)) == 3.0
        monkeypatch.setattr(common, "PRETRAIN_REVISION", common.PRETRAIN_REVISION + 1)
        assert load(smoke) == 4.0
        assert calls == [(60, 10), (60, 11), (61, 10), (60, 10)]
        assert len(list(stale.parent.glob("*.npz"))) == 5

    def test_print_table_smoke(self, capsys):
        print_table("t", ["a", "b"], [["x", 1.5], ["y", float("inf")]])
        out = capsys.readouterr().out
        assert "t" in out and "X" in out


class TestExperimentSmoke:
    """End-to-end smoke of one experiment per module at smoke scale."""

    def test_cost_breakdown(self):
        from repro.experiments import cost

        r = cost.tuning_cost_breakdown("smoke", networks=("bert_tiny",))
        assert "bert_tiny" in r["measured"]

    def test_ablation_curve(self):
        from repro.experiments import ablation

        r = ablation.ablation_curve(
            "smoke", network="bert_tiny", variants=("ansor", "moa-pruner")
        )
        assert set(r["final_ms"]) == {"ansor", "moa-pruner"}

    def test_single_op(self):
        from repro.experiments import single_op

        r = single_op.single_operator_bench("smoke", cases=("M-1",))
        assert "M-1" in r["normalized"]

    def test_lse_vs_ga(self):
        from repro.experiments import dataset_metrics

        r = dataset_metrics.lse_vs_ga_bestk(
            "smoke", networks=("bert_tiny",), spec_sizes=(8,), ks=(1,)
        )
        assert r["scores"]
