"""Tests for the learned cost models (repro.costmodel)."""

from __future__ import annotations

import gc
import hashlib
import json
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from doubles import RandomModel

from repro import api
from repro.config import TrainConfig
from repro.core.moa import MomentumAdapter
from repro.costmodel import GBDTModel, PaCM, TenSetMLP, TLPModel, make_labels
from repro.errors import CostModelError
from repro.features.dataflow import DATAFLOW_BLOCKS, DATAFLOW_DIM
from repro.features.primitives import PRIMITIVE_DIM, PRIMITIVE_SEQ
from repro.features.statement import STATEMENT_DIM
from repro.hardware.device import get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir import ops
from repro.rng import make_rng
from repro.nn.losses import pairwise_rank_accuracy
from repro.schedule import generate_sketch, lower_batch, random_config
from repro.serve import JobEngine, drain
from repro.workloads import network_tasks

TRAIN = TrainConfig(epochs=15)


@pytest.fixture(scope="module")
def training_data():
    """Labelled programs from two tasks on the simulated T4: one lowered
    batch per task (the first holds rows ``0:120``), latencies and task
    keys of both in turn."""
    sim = GroundTruthSimulator(get_device("t4"))
    rng = make_rng(0)
    batches = []
    for wl in (ops.matmul(256, 256, 256), ops.conv2d(1, 32, 28, 28, 64, 3)):
        space = generate_sketch(wl)
        batches.append(lower_batch(space, [random_config(space, rng) for _ in range(120)]))
    lats = np.concatenate([sim.latency_batch(b) for b in batches])
    keys = [b.configs.space.workload.key for b in batches for _ in range(len(b))]
    return batches, lats, keys


def _features(model, batches):
    return np.concatenate([model.featurize_batch(b) for b in batches])


def _scores(model, batches):
    return np.concatenate([model.predict_batch(b) for b in batches])


def _fit(model, batches, lats, keys, *args, **kwargs):
    """Train ``model`` on the rows of ``batches`` in turn, the way every caller does.

    Returns the training score: the pairwise rank accuracy of the
    trained model's ``predict_batch`` over the same rows.
    """
    assert model.fit(_features(model, batches), lats, keys, *args, **kwargs) is None
    return pairwise_rank_accuracy(_scores(model, batches), *make_labels(lats, keys))


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
        (batch, _), lats, keys = training_data
        batch = batch.take(np.r_[0:20, 0:4])
        lats = np.concatenate([lats[:20], [np.inf] * 4])
        keys = keys[:20] + ["all-dead-task"] * 4
        model = TenSetMLP()
        acc = _fit(model, [batch], lats, keys, train=TrainConfig(epochs=2), rng=make_rng(2))
        assert np.isfinite(acc)
        assert np.all(np.isfinite(model.predict_batch(batch.take(np.arange(5)))))


@pytest.mark.parametrize(
    "factory", [GBDTModel, TenSetMLP, TLPModel, PaCM], ids=lambda f: f.__name__
)
class TestAllModels:
    def test_fit_predict_roundtrip(self, factory, training_data):
        batches, lats, keys = training_data
        model = factory()
        acc = _fit(model, batches, lats, keys, train=TRAIN, rng=make_rng(1))
        assert acc > 0.6, f"{factory.__name__} failed to learn: acc={acc:.3f}"
        scores = model.predict_batch(batches[0].take(np.arange(10)))
        assert scores.shape == (10,)
        assert np.all(np.isfinite(scores))

    def test_predict_empty(self, factory):
        empty = lower_batch(generate_sketch(ops.matmul(64, 64, 64)), [])
        assert factory().predict_batch(empty).shape == (0,)

    def test_featurize_batch_has_one_row_per_candidate(self, factory, training_data):
        (batch, _), _, _ = training_data
        features = factory().featurize_batch(batch.take(np.arange(7)))
        assert features.shape[0] == 7 and features.dtype == np.float64

    def test_higher_score_means_faster(self, factory, training_data):
        """Within a task, predicted scores correlate negatively with latency."""
        batches, lats, keys = training_data
        model = factory()
        _fit(model, batches, lats, keys, train=TRAIN, rng=make_rng(1))
        idx = [i for i, k in enumerate(keys) if k == keys[0]]
        scores = model.predict_batch(batches[0].take(np.asarray(idx)))
        finite = [i for i in range(len(idx)) if np.isfinite(lats[idx[i]])]
        corr = np.corrcoef(scores[finite], -np.log(lats[[idx[i] for i in finite]]))[0, 1]
        assert corr > 0.3


class TestNNModelSpecifics:
    def test_params_roundtrip_preserves_predictions(self, training_data):
        batches, lats, keys = training_data
        a = PaCM(seed=0)
        _fit(a, batches, lats, keys, train=TrainConfig(epochs=4), rng=make_rng(0))
        b = PaCM(seed=5)
        b.set_params(a.get_params())
        head = batches[0].take(np.arange(8))
        assert np.allclose(a.predict_batch(head), b.predict_batch(head))

    def test_norm_stats_travel_with_params(self, training_data):
        batches, lats, keys = training_data
        a = TenSetMLP(seed=0)
        _fit(a, batches, lats, keys, train=TrainConfig(epochs=2), rng=make_rng(0))
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
        batches, lats, keys = training_data
        model = RandomModel()
        features = _features(model, batches)
        assert features.shape == (len(lats), 0)  # it reads nothing
        assert model.fit(features, lats, keys) is None
        assert model.predict_batch(batches[0].take(np.arange(5))).shape == (5,)


#: Captured at the parent of the commit that fused the training kernels
#: (composed-primitive forward/backward, per-tensor Adam) by running
#: ``_golden_fit`` there; the file is data, not a wrapper of today's code.
GOLDEN_PATH = Path(__file__).parent / "fixtures" / "nn_fit_golden.json"
GOLDEN_ROWS = 48
_HYBRID_ROW = (STATEMENT_DIM + DATAFLOW_BLOCKS * DATAFLOW_DIM,)
GOLDEN_MODELS = {
    "pacm": (PaCM, _HYBRID_ROW),
    "mlp": (TenSetMLP, (STATEMENT_DIM,)),
    "tlp": (TLPModel, (PRIMITIVE_SEQ, PRIMITIVE_DIM)),
}
#: The same fit, frozen to the bit: every parameter's bytes as SHA-256
#: and the scores as ``float.hex``.  Captured on the last commit whose
#: training built one graph node per layer and op; ``python
#: tests/test_costmodel.py`` rewrites it, only for a deliberate change
#: of the training math.
EXACT_PATH = Path(__file__).parent / "fixtures" / "nn_exact_golden.json"
EXACT_MODELS = {
    "pacm": (PaCM, _HYBRID_ROW),
    "pacm-no-sf": (lambda seed: PaCM(use_statement=False, seed=seed), _HYBRID_ROW),
    "pacm-no-df": (lambda seed: PaCM(use_dataflow=False, seed=seed), _HYBRID_ROW),
    "mlp": GOLDEN_MODELS["mlp"],
    "tlp": GOLDEN_MODELS["tlp"],
}


def _golden_fit(factory, row_shape):
    """Twelve optimizer steps on a fixed synthetic batch (no lowering involved).

    Returns the trained model, its scores on the batch and the batch's
    ranking accuracy under those scores.
    """
    model = factory(seed=3)
    rng = make_rng(11)
    features = rng.normal(size=(GOLDEN_ROWS, *row_shape))
    latencies = np.exp(rng.normal(size=GOLDEN_ROWS))
    latencies[5] = np.inf
    keys = ["a"] * 24 + ["b"] * 24
    model.fit(
        features, latencies, keys, TrainConfig(epochs=3, batch_size=16), rng=make_rng(5)
    )
    scores = model._score(model._normalize(features))
    return model, scores, pairwise_rank_accuracy(scores, *make_labels(latencies, keys))


def _golden_summary(kind):
    model, scores, accuracy = _golden_fit(*GOLDEN_MODELS[kind])
    params = model.get_params()
    return {
        "accuracy": accuracy,
        "scores": scores.tolist(),
        "param_sums": {name: float(params[name].sum()) for name in sorted(params)},
    }


def exact_case(kind):
    model, scores, _ = _golden_fit(*EXACT_MODELS[kind])
    params = model.get_params()
    return {
        "scores": [float(s).hex() for s in scores],
        "params": {
            name: hashlib.sha256(np.ascontiguousarray(params[name]).tobytes()).hexdigest()
            for name in sorted(params)
        },
    }


def _same_params(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


class TestTrainingPath:
    """The layer-wise backward and the flat-buffer Adam behind ``NNCostModel.fit``."""

    FIT = TrainConfig(epochs=2)

    @pytest.mark.parametrize("kind", sorted(GOLDEN_MODELS))
    def test_fit_reproduces_frozen_golden(self, kind):
        want = json.loads(GOLDEN_PATH.read_text())[kind]
        got = _golden_summary(kind)
        assert got["accuracy"] == want["accuracy"]
        assert np.allclose(got["scores"], want["scores"], rtol=0, atol=1e-9)
        assert got["param_sums"].keys() == want["param_sums"].keys()
        for name, total in want["param_sums"].items():
            assert abs(got["param_sums"][name] - total) < 1e-9, name

    @pytest.mark.parametrize("kind", list(EXACT_MODELS))
    def test_fit_reproduces_exact_golden(self, kind):
        assert exact_case(kind) == json.loads(EXACT_PATH.read_text())[kind]

    def test_exact_golden_has_no_other_cases(self):
        assert list(json.loads(EXACT_PATH.read_text())) == list(EXACT_MODELS)

    @pytest.mark.parametrize("factory", [PaCM, TenSetMLP, TLPModel], ids=lambda f: f.__name__)
    def test_same_seed_fit_twice_is_identical(self, factory, training_data):
        (batch, _), lats, keys = training_data
        head = batch.take(np.arange(80))
        runs = []
        for _ in range(2):
            model = factory(seed=2)
            acc = _fit(model, [head], lats[:80], keys[:80], self.FIT, rng=make_rng(7))
            runs.append((acc, model.get_params()))
        assert runs[0][0] == runs[1][0]
        assert _same_params(runs[0][1], runs[1][1])

    def test_fit_encodes_nothing_and_scores_what_predict_batch_scores(
        self, training_data, monkeypatch
    ):
        """``fit`` trains on the rows it is handed, which score exactly as
        ``predict_batch`` scores the batch they encode; it returns nothing."""
        batches, lats, keys = training_data
        model = PaCM(seed=0)
        features = _features(model, batches)
        with monkeypatch.context() as m:
            m.setattr(model, "featurize_batch", lambda _: pytest.fail("fit encoded"))
            assert model.fit(features, lats, keys, self.FIT, rng=make_rng(0)) is None
        scores = model._score(model._normalize(features))
        assert np.array_equal(scores, _scores(model, batches))

    def test_set_params_between_fits_reaches_fit_and_predict_batch(self, training_data):
        """The optimizer of the last fit must not keep serving stale views."""
        train, lats, keys = training_data
        batch = train[0].take(np.arange(16))
        a = PaCM(seed=0)
        features = _features(a, train)
        a.fit(features, lats, keys, self.FIT, rng=make_rng(0))
        snapshot = a.get_params()
        at_snapshot = a.predict_batch(batch)
        a.fit(features, lats, keys, self.FIT, rng=make_rng(1))
        assert not np.array_equal(a.predict_batch(batch), at_snapshot)
        # the earlier snapshot is an independent copy ...
        b = PaCM(seed=9)
        b.set_params(snapshot)
        assert np.array_equal(b.predict_batch(batch), at_snapshot)
        # ... and loading it back is seen by inference and by the next fit
        a.set_params(snapshot)
        assert np.array_equal(a.predict_batch(batch), at_snapshot)
        a.fit(features, lats, keys, self.FIT, rng=make_rng(2))
        b.fit(features, lats, keys, self.FIT, rng=make_rng(2))
        assert _same_params(a.get_params(), b.get_params())
        assert np.array_equal(a.predict_batch(batch), b.predict_batch(batch))

    def test_moa_update_between_fits(self, training_data):
        """Load Param -> fine-tune -> momentum update, two rounds (Section 4.3)."""
        train, lats, keys = training_data
        batch = train[0].take(np.arange(16))
        model = PaCM(seed=0)
        features = _features(model, train)
        model.fit(features, lats, keys, self.FIT, rng=make_rng(0))
        adapter = MomentumAdapter(model.get_params(), momentum=0.5)
        for round_seed in (1, 2):
            siamese = adapter.siamese_params
            adapter.load_into(model)
            assert _same_params(model.get_params(), siamese)
            loaded = PaCM(seed=4)
            loaded.set_params(siamese)
            assert np.array_equal(model.predict_batch(batch), loaded.predict_batch(batch))
            model.fit(features, lats, keys, self.FIT, rng=make_rng(round_seed))
            loaded.fit(features, lats, keys, self.FIT, rng=make_rng(round_seed))
            assert _same_params(model.get_params(), loaded.get_params())
            adapter.update_from(model)
            # the fold reads a copy: phi_s moved, the model did not
            assert _same_params(model.get_params(), loaded.get_params())
            assert adapter.drift(siamese) > 0

    @pytest.mark.parametrize("factory", [PaCM, TenSetMLP, TLPModel], ids=lambda f: f.__name__)
    def test_save_load_state_bit_exact_after_fit(self, factory, training_data):
        (train, _), lats, keys = training_data
        batch = train.take(np.arange(16))
        model = factory(seed=0)
        features = model.featurize_batch(train.take(np.arange(80)))
        model.fit(features, lats[:80], keys[:80], self.FIT, rng=make_rng(0))
        state = model.save_state()
        saved = {k: v.copy() for k, v in state["params"].items()}
        restored = factory(seed=6)
        restored.load_state(state)
        assert np.array_equal(restored.predict_batch(batch), model.predict_batch(batch))
        # the state is a copy: training on does not reach into it
        model.fit(features, lats[:80], keys[:80], self.FIT, rng=make_rng(1))
        assert _same_params(state["params"], saved)
        assert not _same_params(model.get_params(), saved)


def _cyclic_garbage(run, warm=None) -> tuple[int, Counter]:
    """What ``run()`` leaves in reference cycles, counted with gc off.

    ``warm`` (default: ``run`` itself) goes once first: imports and
    lazily built tables are not the job's garbage.
    """
    (warm or run)()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        return found, Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


class TestNoCyclicGarbage:
    """A training step's graph is freed by reference counting, so neither a
    fit nor a whole tuning job leaves work for the garbage collector."""

    @pytest.mark.parametrize("kind", sorted(GOLDEN_MODELS))
    def test_fit(self, kind):
        factory, row_shape = GOLDEN_MODELS[kind]
        rng = make_rng(0)
        features = rng.normal(size=(60, *row_shape))
        latencies = np.exp(rng.normal(size=60))
        keys = ["a"] * 30 + ["b"] * 30

        def fit():
            factory(seed=1).fit(features, latencies, keys, TrainConfig(epochs=2), make_rng(1))

        found, kinds = _cyclic_garbage(fit)
        assert found == 0, kinds

    def test_tuning_job(self):
        subs = network_tasks("bert_tiny", top_k=1)
        found, kinds = _cyclic_garbage(
            lambda: api.tune_subgraphs("pruner", subs, "a100", rounds=3, scale="smoke")
        )
        assert found == 0, kinds

    def test_engine_jobs(self, tmp_path):
        """Jobs drained through one engine: each rewrites the record and
        model store indexes, which an indented ``json.dumps`` did through
        the pure-Python encoder and its closure cycles (six of them, 198
        objects, over these three jobs)."""
        engine = JobEngine(tmp_path)

        def jobs(*networks):
            for network in networks:
                engine.submit(network, rounds=2, scale="smoke", top_k_tasks=1)
            drain(engine)

        found, kinds = _cyclic_garbage(
            lambda: jobs("resnet50", "mobilenet_v2", "vit"), warm=lambda: jobs("bert_tiny")
        )
        assert found == 0, kinds

    def test_a_dropped_result_frees_its_batches_and_parameters(self, monkeypatch):
        """With gc off, dropping a finished job's result frees every batch
        its record log held and the cost model's parameter arrays:
        reference counting alone lets go of what a job measured."""
        models = []
        make = api.MethodSpec.new_model
        monkeypatch.setattr(
            api.MethodSpec, "new_model", lambda *args: models.append(make(*args)) or models[-1]
        )
        subs = network_tasks("bert_tiny", top_k=1)
        gc.collect()
        gc.disable()
        try:
            result = api.tune_subgraphs("pruner", subs, "a100", rounds=3, scale="smoke")
            (model,) = models
            held = [weakref.ref(batch) for batch in result.records.batches()]
            held += [weakref.ref(t.data) for t in model.net.parameters()]
            assert len(held) > len(result.records.batches()) > 0
            del result, model
            models.clear()
            alive = [ref() for ref in held if ref() is not None]
            assert alive == []
        finally:
            gc.enable()


class TestGBDT:
    def test_more_trees_fit_better(self, training_data):
        batches, lats, keys = training_data
        small = _fit(GBDTModel(n_trees=3), batches, lats, keys)
        big = _fit(GBDTModel(n_trees=40), batches, lats, keys)
        assert big >= small

    def test_tiny_dataset_handled(self, training_data):
        (batch, _), lats, keys = training_data
        model = GBDTModel()
        _fit(model, [batch.take(np.arange(2))], lats[:2], keys[:2])
        # too few rows to split: no trees, every prediction the 0.0 base
        assert np.array_equal(model.predict_batch(batch.take(np.arange(3))), np.zeros(3))

    def test_no_params_protocol(self):
        with pytest.raises(CostModelError):
            GBDTModel().get_params()


if __name__ == "__main__":
    # Rewrites the exact training golden from today's code: only for a
    # deliberate change of the training math.
    exact = {kind: exact_case(kind) for kind in EXACT_MODELS}
    EXACT_PATH.write_text(json.dumps(exact, indent=1) + "\n")
