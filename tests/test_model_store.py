"""Tests for cost-model checkpoints: save/load state, the ModelStore,
and warm-starting tuners from persisted checkpoints."""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from repro import api
from repro.config import TrainConfig
from repro.costmodel import GBDTModel, PaCM, TenSetMLP, TLPModel
from repro.costmodel.base import MODEL_STATE_VERSION, RandomModel
from repro.errors import CostModelError
from repro.hardware.device import get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir import ops
from repro.ir.partition import SubgraphTask
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower, random_config
from repro.search import make_tasks
from repro.service.models import (
    CHECKPOINT_SCHEMA_VERSION,
    ModelStore,
    decode_array,
    encode_array,
    state_from_wire,
    state_to_wire,
    wire_trained_trials,
)
from repro.service.store import store_key_for_tasks

TRAIN = TrainConfig(epochs=2)


@pytest.fixture(scope="module")
def training_data():
    """A small labelled corpus from one simulated task."""
    sim = GroundTruthSimulator(get_device("t4"))
    rng = make_rng(0)
    wl = ops.matmul(128, 128, 128)
    space = generate_sketch(wl)
    progs, lats = [], []
    for _ in range(40):
        prog = lower(space, random_config(space, rng))
        progs.append(prog)
        lats.append(sim.latency(prog))
    return progs, np.array(lats), [wl.key] * len(progs)


def _truncate_to_two_lines(path):
    """An operator trimming a key's record file by hand."""
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:2]))


def _fresh(factory):
    """A differently-seeded instance of the same architecture."""
    if factory is GBDTModel:
        return GBDTModel()
    return factory(seed=7)


class TestArrayEncoding:
    def test_bit_identical_round_trip(self):
        for arr in (
            np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0,
            np.array([1e-300, np.pi, -0.0]),
            np.arange(5, dtype=np.int64),
            np.zeros((0, 3)),
        ):
            back = decode_array(json.loads(json.dumps(encode_array(arr))))
            assert back.dtype == arr.dtype
            assert back.shape == arr.shape
            assert np.array_equal(back, arr)


@pytest.mark.parametrize(
    "factory", [GBDTModel, TenSetMLP, TLPModel, PaCM], ids=lambda f: f.__name__
)
class TestStateRoundTrip:
    def test_bit_identical_predictions_through_wire(self, factory, training_data):
        """get_params -> save_state -> wire -> load_state reproduces the
        trained model's predictions exactly, for all four model kinds."""
        progs, lats, keys = training_data
        model = factory()
        model.fit(progs, lats, keys, train=TRAIN, rng=make_rng(1))
        wire = state_to_wire(model.save_state(), trained_trials=len(progs))
        # through real JSON, like the disk file and the lease payload
        wire = json.loads(json.dumps(wire))
        assert wire_trained_trials(wire) == len(progs)

        restored = _fresh(factory)
        restored.load_state(state_from_wire(wire))
        expected = model.predict(progs[:12])
        got = restored.predict(progs[:12])
        assert np.array_equal(got, expected)  # bit-identical, not approx

    def test_untrained_state_round_trips(self, factory, training_data):
        progs, _, _ = training_data
        model = factory()
        restored = _fresh(factory)
        restored.load_state(model.save_state())
        assert np.array_equal(restored.predict(progs[:4]), model.predict(progs[:4]))


class TestStateRejection:
    def test_version_mismatch(self):
        state = TenSetMLP().save_state()
        state["state_v"] = MODEL_STATE_VERSION + 1
        with pytest.raises(CostModelError):
            TenSetMLP().load_state(state)

    def test_kind_mismatch(self):
        state = TenSetMLP().save_state()
        with pytest.raises(CostModelError):
            PaCM().load_state(state)

    def test_feature_kind_mismatch(self):
        state = TenSetMLP().save_state()
        state["kind"] = "gbdt"  # claim to be the right kind...
        with pytest.raises(CostModelError):  # ...feature kind still guards
            GBDTModel().load_state(dict(state, feature_kind="primitives"))

    def test_arch_mismatch(self):
        state = PaCM(d_model=32).save_state()
        with pytest.raises(CostModelError):
            PaCM(d_model=16).load_state(state)
        with pytest.raises(CostModelError):
            PaCM(use_dataflow=False).load_state(state)

    def test_seed_difference_is_compatible(self):
        state = PaCM(seed=0).save_state()
        other = PaCM(seed=99)
        other.load_state(state)  # seed is provenance, not architecture

    def test_random_model_has_no_state(self):
        with pytest.raises(CostModelError):
            RandomModel().save_state()

    def test_hostile_gbdt_state_rejected_without_corruption(self, training_data):
        """A corrupt envelope (empty base, out-of-range children) must
        raise CostModelError — the cold-start contract — and leave the
        trained model fully intact, trees included."""
        progs, lats, keys = training_data
        model = GBDTModel()
        model.fit(progs, lats, keys, rng=make_rng(3))
        before = model.predict(progs[:8])
        good = model.save_state()

        empty_base = dict(good, params=dict(good["params"], _base=np.zeros(0)))
        with pytest.raises(CostModelError):
            GBDTModel().load_state(empty_base)

        bad_children = dict(good, params=dict(good["params"]))
        name = next(n for n in bad_children["params"] if n.endswith(".left"))
        features = bad_children["params"][name.replace(".left", ".feature")]
        split_pos = int(np.flatnonzero(features >= 0)[0])  # a real split node
        poisoned = bad_children["params"][name].copy()
        poisoned[split_pos] = 10_000  # way past the node table
        bad_children["params"][name] = poisoned
        with pytest.raises(CostModelError):
            model.load_state(bad_children)  # into the *trained* model
        assert np.array_equal(model.predict(progs[:8]), before)  # untouched

        cyclic = dict(good, params=dict(good["params"]))
        loop = cyclic["params"][name].copy()
        loop[split_pos] = split_pos  # self-loop: in-range but never terminates
        cyclic["params"][name] = loop
        with pytest.raises(CostModelError):  # predict() would hang forever
            GBDTModel().load_state(cyclic)

        wide = dict(good, params=dict(good["params"]))
        feat_name = name.replace(".left", ".feature")
        feats = wide["params"][feat_name].copy()
        feats[split_pos] = 10**6  # splits on a feature that doesn't exist
        wide["params"][feat_name] = feats
        with pytest.raises(CostModelError):  # predict() would IndexError
            GBDTModel().load_state(wide)

        nan_feat = dict(good, params=dict(good["params"]))
        arr = nan_feat["params"][feat_name].astype(float)
        arr[split_pos] = np.nan  # int(NaN) would raise bare ValueError
        nan_feat["params"][feat_name] = arr
        with pytest.raises(CostModelError):
            GBDTModel().load_state(nan_feat)

    def test_non_finite_wire_array_rejected(self):
        """NaN weights are never legitimate: the wire decode kills them
        before they can poison predictions or crash int casts."""
        state = TenSetMLP(seed=0).save_state()
        name = next(iter(state["params"]))
        state["params"][name] = np.full_like(state["params"][name], np.nan)
        wire = state_to_wire(state, trained_trials=1)
        with pytest.raises(CostModelError):
            state_from_wire(wire)

    def test_malformed_wire(self):
        with pytest.raises(CostModelError):
            state_from_wire({"ckpt_v": CHECKPOINT_SCHEMA_VERSION + 1})
        with pytest.raises(CostModelError):
            state_from_wire({"ckpt_v": CHECKPOINT_SCHEMA_VERSION})  # no fields

    def test_unpaired_norm_stats_rejected(self, training_data):
        """Weights without the sigma they were normalized by must be a
        cold start, not a silently denormalized model."""
        progs, lats, keys = training_data
        model = TenSetMLP(seed=0)
        model.fit(progs, lats, keys, train=TRAIN, rng=make_rng(1))
        state = model.save_state()
        assert "_norm.sigma" in state["params"]
        state["params"] = dict(state["params"])
        del state["params"]["_norm.sigma"]
        with pytest.raises(CostModelError):
            TenSetMLP(seed=1).load_state(state)

    def test_integer_weight_arrays_rejected(self):
        """Right names and shapes but int dtype (corruption) must raise
        at load, not crash the optimizer at the first training step."""
        state = TenSetMLP(seed=0).save_state()
        state["params"] = {
            name: arr.astype(np.int64) for name, arr in state["params"].items()
        }
        with pytest.raises(CostModelError):
            TenSetMLP(seed=1).load_state(state)

    def test_bad_norm_stats_rejected(self, training_data):
        """Zero or NaN normalization stats must reject as cold start,
        never load and turn every prediction NaN."""
        progs, lats, keys = training_data
        model = TenSetMLP(seed=0)
        model.fit(progs, lats, keys, train=TRAIN, rng=make_rng(1))
        good = model.save_state()
        for poison in (0.0, np.nan):
            state = dict(good, params=dict(good["params"]))
            state["params"]["_norm.sigma"] = np.full_like(
                state["params"]["_norm.sigma"], poison
            )
            with pytest.raises(CostModelError):
                TenSetMLP(seed=1).load_state(state)
        state = dict(good, params=dict(good["params"]))
        state["params"]["_norm.mu"] = np.full_like(
            state["params"]["_norm.mu"], np.nan
        )
        with pytest.raises(CostModelError):
            TenSetMLP(seed=1).load_state(state)

    def test_non_numeric_array_dtype_rejected(self):
        """A unicode-dtype weight array must die at decode (CostModelError,
        i.e. cold start) — not pass shape checks and TypeError mid-tuning."""
        wire = state_to_wire(TenSetMLP(seed=0).save_state(), trained_trials=1)
        name = next(iter(wire["params"]))
        shape = wire["params"][name]["shape"]
        hostile = np.full(shape, "x", dtype="<U1")
        wire["params"][name] = {
            "dtype": hostile.dtype.str,
            "shape": shape,
            "data": base64.b64encode(hostile.tobytes()).decode(),
        }
        with pytest.raises(CostModelError):
            state_from_wire(wire)

    def test_partial_load_never_corrupts(self):
        """A rejected params dict must leave the model untouched."""
        model = TenSetMLP(seed=0)
        before = model.get_params()
        bad = {k: v for k, v in before.items()}
        first = sorted(bad)[0]
        bad[first] = np.zeros((1, 1))  # wrong shape
        with pytest.raises(CostModelError):
            model.net.set_params(bad)
        after = model.get_params()
        assert all(np.array_equal(after[k], before[k]) for k in before)


class TestModelStore:
    def _key(self, a100):
        tasks = make_tasks([SubgraphTask(ops.matmul(128, 128, 128), 1)], a100)
        return store_key_for_tasks(tasks, "pruner")

    def test_save_load_round_trip(self, tmp_path, a100):
        store = ModelStore(tmp_path)
        key = self._key(a100)
        model = PaCM(seed=0)
        assert store.load_state(key, "pacm") is None
        assert store.save(key, model, trained_trials=10)
        state = store.load_state(key, "pacm")
        restored = PaCM(seed=3)
        restored.load_state(state)
        assert store.trained_trials(key, "pacm") == 10
        params, expected = restored.get_params(), model.get_params()
        assert set(params) == set(expected)
        assert all(np.array_equal(params[k], expected[k]) for k in params)

    def test_staleness_arbitration(self, tmp_path, a100):
        """A checkpoint trained on fewer trials never clobbers a
        better-trained one; a fresher one replaces it."""
        store = ModelStore(tmp_path)
        key = self._key(a100)
        newer = state_to_wire(TenSetMLP(seed=1).save_state(), trained_trials=50)
        older = state_to_wire(TenSetMLP(seed=2).save_state(), trained_trials=10)
        assert store.save_wire(key, "mlp", newer)
        assert not store.save_wire(key, "mlp", older)  # stale: dropped
        assert store.trained_trials(key, "mlp") == 50
        fresher = state_to_wire(TenSetMLP(seed=3).save_state(), trained_trials=60)
        assert store.save_wire(key, "mlp", fresher)
        assert store.trained_trials(key, "mlp") == 60

    def test_garbage_wire_rejected(self, tmp_path, a100):
        store = ModelStore(tmp_path)
        key = self._key(a100)
        assert not store.save_wire(key, "mlp", {"ckpt_v": "nope"})
        assert not store.save_wire(key, "mlp", None)
        # kind must match what the caller expects for this slot
        wire = state_to_wire(TenSetMLP().save_state(), trained_trials=1)
        assert not store.save_wire(key, "pacm", wire)

    def test_random_model_is_skipped(self, tmp_path, a100):
        store = ModelStore(tmp_path)
        assert not store.save(self._key(a100), RandomModel(), trained_trials=5)

    def test_kinds_stored_side_by_side(self, tmp_path, a100):
        store = ModelStore(tmp_path)
        key = self._key(a100)
        assert store.save(key, TenSetMLP(), trained_trials=1)
        assert store.save(key, PaCM(), trained_trials=2)
        assert store.load_state(key, "mlp")["kind"] == "mlp"
        assert store.load_state(key, "pacm")["kind"] == "pacm"
        assert len(store.stats()) == 2

    def test_damaged_index_entries_tolerated(self, tmp_path, a100):
        """A hand-damaged index (non-dict entry, garbage counter) must
        degrade gracefully — the lease hot path keeps serving."""
        store = ModelStore(tmp_path)
        key = self._key(a100)
        assert store.save(key, TenSetMLP(), trained_trials=5)
        index_path = store._index_path()
        index = json.loads(index_path.read_text())
        index["zzz-broken.json"] = ["not", "a", "dict"]
        entry = index[store.path_for(key, "mlp").name]
        entry["last_used"] = "abc"
        entry["trained_trials"] = "abc"
        index_path.write_text(json.dumps(index))
        assert store.load_wire(key, "mlp") is not None
        assert store.trained_trials(key, "mlp") == 0  # damaged count -> 0
        (stat,) = store.stats()  # the phantom entry is skipped
        assert stat["trained_trials"] == 0
        # re-registering repairs the damaged counts
        assert store.save(key, TenSetMLP(), trained_trials=7)
        assert store.trained_trials(key, "mlp") == 7

        # a fully non-dict entry is repaired by the next save
        filename = store.path_for(key, "mlp").name
        index = json.loads(index_path.read_text())
        index[filename] = ["damaged"]
        index_path.write_text(json.dumps(index))
        assert store.stats() == []  # skipped, not raised
        assert store.save(key, TenSetMLP(), trained_trials=8)
        (stat,) = store.stats()
        assert stat["kind"] == "mlp" and stat["device"] == "a100"


class TestTunerWarmStart:
    SUBS = [SubgraphTask(ops.matmul(128, 128, 128), 1)]

    def test_cache_dir_saves_and_reloads_checkpoint(self, tmp_path):
        """Run 1 checkpoints its trained model; run 2 restores it (no
        cold retrain from round 0) and still improves monotonically."""
        first = api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=3, scale="smoke",
            cache_dir=tmp_path,
        )
        assert not first.warm_model  # nothing to restore on a cold store
        store = ModelStore(tmp_path)
        tasks = api.tasks_for("pruner", self.SUBS, get_device("a100"))
        key = store_key_for_tasks(tasks, "pruner")
        assert store.trained_trials(key, "pacm") == first.total_trials

        second = api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=3, scale="smoke",
            cache_dir=tmp_path,
        )
        assert second.warm_model
        assert second.seeded_trials > 0
        assert second.final_latency <= first.final_latency

    def test_checkpoint_warm_starts_without_records(self, tmp_path):
        """The checkpoint alone (records wiped) still warm-starts the
        model: the second tuner predicts identically to the first's
        final model before any new measurement."""
        api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=3, scale="smoke",
            cache_dir=tmp_path,
        )
        for path in tmp_path.glob("*.jsonl"):
            path.unlink()  # drop the records, keep models/
        result = api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=2, scale="smoke",
            cache_dir=tmp_path,
        )
        assert result.warm_model
        assert result.seeded_trials == 0

    def test_untrained_warm_run_does_not_rerank_checkpoint(self, tmp_path):
        """A warm-started run whose budget is already covered (so the
        model never retrains) must not re-save the checkpoint with an
        inflated trial count — that would make staleness arbitration
        reject genuinely fresher checkpoints later."""
        first = api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=2, scale="smoke",
            cache_dir=tmp_path,
        )
        store = ModelStore(tmp_path)
        tasks = api.tasks_for("pruner", self.SUBS, get_device("a100"))
        key = store_key_for_tasks(tasks, "pruner")
        ranked = store.trained_trials(key, "pacm")
        assert ranked > 0
        stamp = store.path_for(key, "pacm").stat().st_mtime_ns
        second = api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=2, scale="smoke",
            cache_dir=tmp_path,
        )
        assert second.warm_model and second.fresh_trials == 0
        assert store.trained_trials(key, "pacm") == ranked  # rank unchanged
        assert store.path_for(key, "pacm").stat().st_mtime_ns == stamp
        assert first.total_trials == second.total_trials

    def test_model_cache_false_disables_checkpoints(self, tmp_path):
        api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=2, scale="smoke",
            cache_dir=tmp_path, model_cache=False,
        )
        assert not (tmp_path / ModelStore.DIR_NAME).exists()
        # seed a checkpoint, then tune again with the cache off
        api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=2, scale="smoke",
            cache_dir=tmp_path,
        )
        cold = api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=2, scale="smoke",
            cache_dir=tmp_path, model_cache=False,
        )
        assert not cold.warm_model

    def test_incompatible_checkpoint_falls_back_to_cold(self, tmp_path):
        """A checkpoint from a different model kind reads as 'no
        checkpoint', never an error."""
        api.tune_subgraphs(
            "ansor", self.SUBS, "a100", rounds=2, scale="smoke",
            cache_dir=tmp_path,
        )
        tasks = api.tasks_for("ansor", self.SUBS, get_device("a100"))
        key = store_key_for_tasks(tasks, "ansor")
        store = ModelStore(tmp_path)
        # plant a PaCM state where the ansor run expects its GBDT one
        masquerade = state_to_wire(PaCM().save_state(), trained_trials=999)
        store.path_for(key, "gbdt").write_text(json.dumps(masquerade))
        result = api.tune_subgraphs(
            "ansor", self.SUBS, "a100", rounds=2, scale="smoke",
            cache_dir=tmp_path,
        )
        assert not result.warm_model  # kind mismatch -> cold start, no crash

    def test_warm_model_retrains_when_records_outgrow_checkpoint(self, tmp_path):
        """A checkpoint older than the record store must not freeze the
        model at round 0: the tuner retrains on the (richer) seed rows
        while still counting as warm-started."""
        api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=2, scale="smoke",
            cache_dir=tmp_path,
        )
        # grow the record store past the checkpoint's training set
        api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=4, scale="smoke",
            cache_dir=tmp_path, model_cache=False,
        )
        tasks = api.tasks_for("pruner", self.SUBS, get_device("a100"))
        key = store_key_for_tasks(tasks, "pruner")
        store = ModelStore(tmp_path)
        stale_rank = store.trained_trials(key, "pacm")
        result = api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=4, scale="smoke",
            cache_dir=tmp_path,
        )
        assert result.warm_model
        assert result.total_trials > stale_rank
        # the round-0 retrain ran and re-ranked the checkpoint over the
        # full seed, not the stale count
        assert store.trained_trials(key, "pacm") == result.total_trials

    def test_warm_model_skips_retrain_when_checkpoint_covers_seed(self, tmp_path):
        """The fully-covered case keeps the cheap path: same run twice,
        the checkpoint rank equals the seed size, nothing retrains."""
        api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=2, scale="smoke",
            cache_dir=tmp_path,
        )
        tasks = api.tasks_for("pruner", self.SUBS, get_device("a100"))
        key = store_key_for_tasks(tasks, "pruner")
        store = ModelStore(tmp_path)
        stamp = store.path_for(key, "pacm").stat().st_mtime_ns
        result = api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=2, scale="smoke",
            cache_dir=tmp_path,
        )
        assert result.warm_model and result.fresh_trials == 0
        assert store.path_for(key, "pacm").stat().st_mtime_ns == stamp

    def test_compacted_records_do_not_freeze_checkpoint(self, tmp_path):
        """The record file shrinks below the checkpoint's rank (an
        operator trimmed it); a warm run extending that model must still
        replace the stored checkpoint (its rank keeps the inherited
        evidence)."""
        from repro.service.store import RecordStore

        first = api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=3, scale="smoke",
            cache_dir=tmp_path,
        )
        tasks = api.tasks_for("pruner", self.SUBS, get_device("a100"))
        key = store_key_for_tasks(tasks, "pruner")
        store = ModelStore(tmp_path)
        rank = store.trained_trials(key, "pacm")
        assert rank == first.total_trials
        _truncate_to_two_lines(RecordStore(tmp_path).path_for(key))
        stamp = store.path_for(key, "pacm").stat().st_mtime_ns
        result = api.tune_subgraphs(
            "pruner", self.SUBS, "a100", rounds=3, scale="smoke",
            cache_dir=tmp_path,
        )
        assert result.warm_model and result.fresh_trials > 0
        # the retrained-and-extended model replaced the stored file and
        # its rank never regressed below the inherited evidence
        assert store.path_for(key, "pacm").stat().st_mtime_ns != stamp
        assert store.trained_trials(key, "pacm") >= rank

    def test_gbdt_refit_does_not_inherit_checkpoint_rank(self, tmp_path):
        """GBDT rebuilds its trees on every fit, so a warm run over a
        trimmed record file must rank its small refit honestly — the
        store keeps the genuinely better-trained checkpoint."""
        from repro.service.store import RecordStore

        first = api.tune_subgraphs(
            "ansor", self.SUBS, "a100", rounds=3, scale="smoke",
            cache_dir=tmp_path,
        )
        tasks = api.tasks_for("ansor", self.SUBS, get_device("a100"))
        key = store_key_for_tasks(tasks, "ansor")
        store = ModelStore(tmp_path)
        rank = store.trained_trials(key, "gbdt")
        assert rank == first.total_trials
        _truncate_to_two_lines(RecordStore(tmp_path).path_for(key))
        result = api.tune_subgraphs(
            "ansor", self.SUBS, "a100", rounds=1, scale="smoke",
            cache_dir=tmp_path,
        )
        assert result.warm_model
        assert result.total_trials < rank  # the refit saw less evidence
        assert store.trained_trials(key, "gbdt") == rank  # old rank kept

    def test_model_kind_mapping(self):
        assert api.model_kind("pruner") == "pacm"
        assert api.model_kind("ansor") == "gbdt"
        assert api.model_kind("tensetmlp") == "mlp"
        assert api.model_kind("tlp") == "tlp"
        with pytest.raises(Exception):
            api.model_kind("bogus")
