"""Tests for the learned cost models (repro.costmodel)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import TrainConfig
from repro.core.moa import MomentumAdapter
from repro.costmodel import GBDTModel, PaCM, TenSetMLP, TLPModel, make_labels
from repro.costmodel.base import RandomModel
from repro.errors import CostModelError
from repro.features.dataflow import DATAFLOW_BLOCKS, DATAFLOW_DIM
from repro.features.primitives import PRIMITIVE_DIM, PRIMITIVE_SEQ
from repro.features.statement import STATEMENT_DIM
from repro.hardware.device import get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir import ops
from repro.rng import make_rng
from repro.nn.losses import pairwise_rank_accuracy
from repro.schedule import generate_sketch, lower, random_config
from repro.schedule.batch import CandidateBatch

TRAIN = TrainConfig(epochs=15)


@pytest.fixture(scope="module")
def training_data():
    """Labelled programs from two tasks on the simulated T4."""
    sim = GroundTruthSimulator(get_device("t4"))
    rng = make_rng(0)
    progs, lats, keys = [], [], []
    for wl in (ops.matmul(256, 256, 256), ops.conv2d(1, 32, 28, 28, 64, 3)):
        space = generate_sketch(wl)
        for _ in range(120):
            p = lower(space, random_config(space, rng))
            progs.append(p)
            lats.append(sim.latency(p))
            keys.append(wl.key)
    return progs, np.array(lats), keys


class TestMakeLabels:
    def test_normalized_throughput(self):
        lats = np.array([1.0, 2.0, 4.0])
        labels, groups = make_labels(lats, ["t", "t", "t"])
        assert np.allclose(labels, [1.0, 0.5, 0.25])
        assert len(groups) == 1

    def test_invalid_gets_zero(self):
        labels, _ = make_labels(np.array([1.0, np.inf]), ["t", "t"])
        assert labels[1] == 0.0

    def test_groups_split_by_key(self):
        labels, groups = make_labels(np.array([1.0, 2.0, 3.0]), ["a", "b", "a"])
        assert sorted(len(g) for g in groups) == [1, 2]
        # groups normalize independently: each group's best has label 1
        assert labels[0] == 1.0 and labels[1] == 1.0

    def test_all_invalid_group_emits_no_index_group(self):
        """A task whose every measurement failed carries no ranking
        signal: it must not reach lambdarank as an all-zero group."""
        lats = np.array([np.inf, np.inf, 1.0, 2.0])
        labels, groups = make_labels(lats, ["dead", "dead", "live", "live"])
        assert len(groups) == 1  # only the live task groups
        assert list(groups[0]) == [2, 3]
        assert labels[0] == 0.0 and labels[1] == 0.0  # labels still zeroed

    def test_all_groups_invalid_yields_no_groups(self):
        labels, groups = make_labels(np.array([np.inf, np.inf]), ["t", "t"])
        assert groups == []
        assert np.all(labels == 0.0)

    def test_fit_survives_all_invalid_task(self, training_data):
        """Regression: training data containing an all-invalid task must
        not feed a degenerate group to the LambdaRank loop."""
        progs, lats, keys = training_data
        progs = progs[:20] + progs[:4]
        lats = np.concatenate([lats[:20], [np.inf] * 4])
        keys = keys[:20] + ["all-dead-task"] * 4
        model = TenSetMLP()
        acc = model.fit(progs, lats, keys, train=TrainConfig(epochs=2), rng=make_rng(2))
        assert np.isfinite(acc)
        assert np.all(np.isfinite(model.predict(progs[:5])))


@pytest.mark.parametrize(
    "factory", [GBDTModel, TenSetMLP, TLPModel, PaCM], ids=lambda f: f.__name__
)
class TestAllModels:
    def test_fit_predict_roundtrip(self, factory, training_data):
        progs, lats, keys = training_data
        model = factory()
        acc = model.fit(progs, lats, keys, train=TRAIN, rng=make_rng(1))
        assert acc > 0.6, f"{factory.__name__} failed to learn: acc={acc:.3f}"
        scores = model.predict(progs[:10])
        assert scores.shape == (10,)
        assert np.all(np.isfinite(scores))

    def test_predict_empty(self, factory):
        assert factory().predict([]).shape == (0,)

    def test_higher_score_means_faster(self, factory, training_data):
        """Within a task, predicted scores correlate negatively with latency."""
        progs, lats, keys = training_data
        model = factory()
        model.fit(progs, lats, keys, train=TRAIN, rng=make_rng(1))
        idx = [i for i, k in enumerate(keys) if k == keys[0]]
        scores = model.predict([progs[i] for i in idx])
        finite = [i for i in range(len(idx)) if np.isfinite(lats[idx[i]])]
        corr = np.corrcoef(scores[finite], -np.log(lats[[idx[i] for i in finite]]))[0, 1]
        assert corr > 0.3


class TestNNModelSpecifics:
    def test_params_roundtrip_preserves_predictions(self, training_data):
        progs, lats, keys = training_data
        a = PaCM(seed=0)
        a.fit(progs, lats, keys, train=TrainConfig(epochs=4), rng=make_rng(0))
        b = PaCM(seed=5)
        b.set_params(a.get_params())
        assert np.allclose(a.predict(progs[:8]), b.predict(progs[:8]))

    def test_norm_stats_travel_with_params(self, training_data):
        progs, lats, keys = training_data
        a = TenSetMLP(seed=0)
        a.fit(progs, lats, keys, train=TrainConfig(epochs=2), rng=make_rng(0))
        params = a.get_params()
        assert "_norm.mu" in params and "_norm.sigma" in params

    def test_pacm_requires_a_branch(self):
        with pytest.raises(CostModelError):
            PaCM(use_statement=False, use_dataflow=False)

    def test_pacm_ablations_have_different_params(self):
        full = set(PaCM().net.get_params())
        no_sf = set(PaCM(use_statement=False).net.get_params())
        no_df = set(PaCM(use_dataflow=False).net.get_params())
        assert no_sf < full and no_df < full

    def test_random_model_is_uninformative(self, training_data):
        progs, lats, keys = training_data
        model = RandomModel()
        assert model.fit(progs, lats, keys) == 0.5
        assert model.predict(progs[:5]).shape == (5,)


#: Captured at the parent of the commit that fused the training kernels
#: (composed-primitive forward/backward, per-tensor Adam) by running
#: ``_golden_fit`` there; the file is data, not a wrapper of today's code.
GOLDEN_PATH = Path(__file__).parent / "fixtures" / "nn_fit_golden.json"
GOLDEN_ROWS = 48
GOLDEN_MODELS = {
    "pacm": (PaCM, (STATEMENT_DIM + DATAFLOW_BLOCKS * DATAFLOW_DIM,)),
    "mlp": (TenSetMLP, (STATEMENT_DIM,)),
    "tlp": (TLPModel, (PRIMITIVE_SEQ, PRIMITIVE_DIM)),
}


def _golden_fit(kind):
    """Twelve optimizer steps on a fixed synthetic batch (no lowering involved)."""
    cls, row_shape = GOLDEN_MODELS[kind]
    model = cls(seed=3)
    rng = make_rng(11)
    features = rng.normal(size=(GOLDEN_ROWS, *row_shape))
    latencies = np.exp(rng.normal(size=GOLDEN_ROWS))
    latencies[5] = np.inf
    keys = ["a"] * 24 + ["b"] * 24
    progs = [None] * GOLDEN_ROWS
    model.featurize = lambda _progs: features
    accuracy = model.fit(
        progs, latencies, keys, TrainConfig(epochs=3, batch_size=16), rng=make_rng(5)
    )
    params = model.get_params()
    return {
        "accuracy": accuracy,
        "scores": model.predict(progs).tolist(),
        "param_sums": {name: float(params[name].sum()) for name in sorted(params)},
    }


def _same_params(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


class TestTrainingPath:
    """The fused kernels and the flat-buffer Adam behind ``NNCostModel.fit``."""

    FIT = TrainConfig(epochs=2)

    @pytest.mark.parametrize("kind", sorted(GOLDEN_MODELS))
    def test_fit_reproduces_frozen_golden(self, kind):
        want = json.loads(GOLDEN_PATH.read_text())[kind]
        got = _golden_fit(kind)
        assert got["accuracy"] == want["accuracy"]
        assert np.allclose(got["scores"], want["scores"], rtol=0, atol=1e-9)
        assert got["param_sums"].keys() == want["param_sums"].keys()
        for name, total in want["param_sums"].items():
            assert abs(got["param_sums"][name] - total) < 1e-9, name

    @pytest.mark.parametrize("factory", [PaCM, TenSetMLP, TLPModel], ids=lambda f: f.__name__)
    def test_same_seed_fit_twice_is_identical(self, factory, training_data):
        progs, lats, keys = training_data
        runs = []
        for _ in range(2):
            model = factory(seed=2)
            acc = model.fit(progs[:80], lats[:80], keys[:80], self.FIT, rng=make_rng(7))
            runs.append((acc, model.get_params()))
        assert runs[0][0] == runs[1][0]
        assert _same_params(runs[0][1], runs[1][1])

    def test_fit_featurizes_once_and_scores_what_predict_scores(self, training_data):
        progs, lats, keys = training_data
        model = PaCM(seed=0)
        calls = []
        featurize = model.featurize
        model.featurize = lambda p: calls.append(len(p)) or featurize(p)
        acc = model.fit(progs, lats, keys, self.FIT, rng=make_rng(0))
        assert calls == [len(progs)]
        labels, groups = make_labels(lats, keys)
        assert acc == pairwise_rank_accuracy(model.predict(progs), labels, groups)

    def test_set_params_between_fits_reaches_fit_and_predict_batch(self, training_data):
        """The optimizer of the last fit must not keep serving stale views."""
        progs, lats, keys = training_data
        batch = CandidateBatch.from_programs(progs[:16])
        a = PaCM(seed=0)
        a.fit(progs, lats, keys, self.FIT, rng=make_rng(0))
        snapshot = a.get_params()
        at_snapshot = a.predict_batch(batch)
        a.fit(progs, lats, keys, self.FIT, rng=make_rng(1))
        assert not np.array_equal(a.predict_batch(batch), at_snapshot)
        # the earlier snapshot is an independent copy ...
        b = PaCM(seed=9)
        b.set_params(snapshot)
        assert np.array_equal(b.predict_batch(batch), at_snapshot)
        # ... and loading it back is seen by inference and by the next fit
        a.set_params(snapshot)
        assert np.array_equal(a.predict_batch(batch), at_snapshot)
        a.fit(progs, lats, keys, self.FIT, rng=make_rng(2))
        b.fit(progs, lats, keys, self.FIT, rng=make_rng(2))
        assert _same_params(a.get_params(), b.get_params())
        assert np.array_equal(a.predict_batch(batch), b.predict_batch(batch))

    def test_moa_update_between_fits(self, training_data):
        """Load Param -> fine-tune -> momentum update, two rounds (Section 4.3)."""
        progs, lats, keys = training_data
        batch = CandidateBatch.from_programs(progs[:16])
        model = PaCM(seed=0)
        model.fit(progs, lats, keys, self.FIT, rng=make_rng(0))
        adapter = MomentumAdapter.from_model(model, momentum=0.5)
        for round_seed in (1, 2):
            siamese = adapter.siamese_params
            adapter.load_into(model)
            assert _same_params(model.get_params(), siamese)
            loaded = PaCM(seed=4)
            loaded.set_params(siamese)
            assert np.array_equal(model.predict_batch(batch), loaded.predict_batch(batch))
            model.fit(progs, lats, keys, self.FIT, rng=make_rng(round_seed))
            loaded.fit(progs, lats, keys, self.FIT, rng=make_rng(round_seed))
            assert _same_params(model.get_params(), loaded.get_params())
            adapter.update_from(model)
            # the fold reads a copy: phi_s moved, the model did not
            assert _same_params(model.get_params(), loaded.get_params())
            assert adapter.drift(siamese) > 0

    @pytest.mark.parametrize("factory", [PaCM, TenSetMLP, TLPModel], ids=lambda f: f.__name__)
    def test_save_load_state_bit_exact_after_fit(self, factory, training_data):
        progs, lats, keys = training_data
        batch = CandidateBatch.from_programs(progs[:16])
        model = factory(seed=0)
        model.fit(progs[:80], lats[:80], keys[:80], self.FIT, rng=make_rng(0))
        state = model.save_state()
        saved = {k: v.copy() for k, v in state["params"].items()}
        restored = factory(seed=6)
        restored.load_state(state)
        assert np.array_equal(restored.predict_batch(batch), model.predict_batch(batch))
        # the state is a copy: training on does not reach into it
        model.fit(progs[:80], lats[:80], keys[:80], self.FIT, rng=make_rng(1))
        assert _same_params(state["params"], saved)
        assert not _same_params(model.get_params(), saved)


class TestGBDT:
    def test_more_trees_fit_better(self, training_data):
        progs, lats, keys = training_data
        small = GBDTModel(n_trees=3).fit(progs, lats, keys)
        big = GBDTModel(n_trees=40).fit(progs, lats, keys)
        assert big >= small

    def test_tiny_dataset_handled(self, training_data):
        progs, lats, keys = training_data
        assert GBDTModel().fit(progs[:2], lats[:2], keys[:2]) == 0.0

    def test_no_params_protocol(self):
        with pytest.raises(CostModelError):
            GBDTModel().get_params()
