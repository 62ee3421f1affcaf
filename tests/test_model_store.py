"""Tests for cost-model checkpoints: save/load state, the ModelStore,
and warm-starting jobs from persisted checkpoints."""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from doubles import RandomModel

from repro import api
from repro.config import TrainConfig
from repro.costmodel import GBDTModel, PaCM, TenSetMLP, TLPModel
from repro.costmodel.base import MODEL_STATE_VERSION
from repro.errors import CostModelError
from repro.hardware.device import get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir import ops
from repro.ir.partition import SubgraphTask
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower_batch, random_config
from repro.search import make_tasks
from repro.serve import JobEngine, drain
from repro.serve.protocol import checkpoint_from_wire, unwire_float
from repro.service.models import (
    CHECKPOINT_SCHEMA_VERSION,
    ModelStore,
    state_from_wire,
    state_to_wire,
)
from repro.service.store import RecordStore, store_key_for_tasks
from repro.workloads import network_tasks

TRAIN = TrainConfig(epochs=2)


@pytest.fixture(scope="module")
def training_data():
    """A small labelled corpus from one simulated task."""
    sim = GroundTruthSimulator(get_device("t4"))
    rng = make_rng(0)
    wl = ops.matmul(128, 128, 128)
    space = generate_sketch(wl)
    batch = lower_batch(space, [random_config(space, rng) for _ in range(40)])
    return batch, sim.latency_batch(batch), [wl.key] * len(batch)


def _truncate_to_two_lines(path):
    """An operator trimming a key's record file by hand."""
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:2]))


def _fresh(factory):
    """A differently-seeded instance of the same architecture."""
    if factory is GBDTModel:
        return GBDTModel()
    return factory(seed=7)


def v1_envelope(state: dict, trained_trials: int) -> bytes:
    """A version 1 checkpoint file (one JSON envelope line, arrays as
    base64), as releases before the blob format wrote them."""
    params = {
        name: {
            "dtype": np.asarray(arr).dtype.str,
            "shape": list(np.shape(arr)),
            "data": base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode(),
        }
        for name, arr in state["params"].items()
    }
    envelope = {
        "ckpt_v": 1,
        "state_v": state["state_v"],
        "kind": state["kind"],
        "feature_kind": state["feature_kind"],
        "arch": state["arch"],
        "trained_trials": trained_trials,
        "params": params,
    }
    return (json.dumps(envelope) + "\n").encode()


def _as_lease(blob: bytes) -> str:
    """A stored file as a lease carries it."""
    return base64.b64encode(blob).decode("ascii")


class TestArrayEncoding:
    ARRAYS = {
        "ratios": np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0,
        "extremes": np.array([1e-300, np.pi, -0.0]),
        "ints": np.arange(5, dtype=np.int64),
        "empty": np.zeros((0, 3)),
        "flags": np.array([True, False, True]),
        "scalar": np.array(2.5, dtype=np.float32),
        "big_endian": np.arange(4, dtype=">f8"),
    }

    def test_bit_identical_round_trip(self):
        state = {
            "state_v": MODEL_STATE_VERSION,
            "kind": "mlp",
            "feature_kind": "statement",
            "arch": {"hidden": 8},
            "params": self.ARRAYS,
        }
        blob = state_to_wire(state, trained_trials=3)
        back = state_from_wire(blob)
        assert back["trained_trials"] == 3
        assert list(back["params"]) == list(self.ARRAYS)  # header order
        for name, arr in self.ARRAYS.items():
            got = back["params"][name]
            assert got.dtype == arr.dtype.newbyteorder("<")  # stored little-endian
            assert got.shape == arr.shape
            assert got.tobytes() == arr.astype(got.dtype).tobytes()  # -0.0 too

    def test_the_blob_is_a_header_line_then_the_raw_bytes(self):
        state = TenSetMLP(seed=0).save_state()
        blob = state_to_wire(state, trained_trials=7)
        line, tail = blob.split(b"\n", 1)
        header = json.loads(line)
        assert header["ckpt_v"] == CHECKPOINT_SCHEMA_VERSION == 2
        assert header["trained_trials"] == 7
        assert [name for name, _, _ in header["arrays"]] == list(state["params"])
        assert tail == b"".join(arr.tobytes() for arr in state["params"].values())

    def test_a_version_1_envelope_decodes_to_the_same_state(self):
        state = PaCM(seed=3).save_state()
        old = state_from_wire(v1_envelope(state, 9))
        new = state_from_wire(state_to_wire(state, 9))
        assert {k: v for k, v in old.items() if k != "params"} == {
            k: v for k, v in new.items() if k != "params"
        }
        assert all(np.array_equal(old["params"][k], new["params"][k]) for k in state["params"])


@pytest.mark.parametrize(
    "factory", [GBDTModel, TenSetMLP, TLPModel, PaCM], ids=lambda f: f.__name__
)
class TestStateRoundTrip:
    def test_bit_identical_predictions_through_wire(self, factory, training_data):
        """get_params -> save_state -> wire -> load_state reproduces the
        trained model's predictions exactly, for all four model kinds."""
        batch, lats, keys = training_data
        model = factory()
        model.fit(model.featurize_batch(batch), lats, keys, train=TRAIN, rng=make_rng(1))
        wire = state_to_wire(model.save_state(), trained_trials=len(batch))
        # through the lease's base64 string, like a remote runner
        state = checkpoint_from_wire(_as_lease(wire))
        assert state["trained_trials"] == len(batch)

        restored = _fresh(factory)
        restored.load_state(state)
        expected = model.predict_batch(batch.take(np.arange(12)))
        got = restored.predict_batch(batch.take(np.arange(12)))
        assert np.array_equal(got, expected)  # bit-identical, not approx

    def test_untrained_state_round_trips(self, factory, training_data):
        batch, _, _ = training_data
        model = factory()
        restored = _fresh(factory)
        restored.load_state(model.save_state())
        assert np.array_equal(restored.predict_batch(batch.take(np.arange(4))), model.predict_batch(batch.take(np.arange(4))))


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
        batch, lats, keys = training_data
        model = GBDTModel()
        model.fit(model.featurize_batch(batch), lats, keys, rng=make_rng(3))
        before = model.predict_batch(batch.take(np.arange(8)))
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
        assert np.array_equal(model.predict_batch(batch.take(np.arange(8))), before)  # untouched

        cyclic = dict(good, params=dict(good["params"]))
        loop = cyclic["params"][name].copy()
        loop[split_pos] = split_pos  # self-loop: in-range but never terminates
        cyclic["params"][name] = loop
        with pytest.raises(CostModelError):  # predict_batch() would hang forever
            GBDTModel().load_state(cyclic)

        wide = dict(good, params=dict(good["params"]))
        feat_name = name.replace(".left", ".feature")
        feats = wide["params"][feat_name].copy()
        feats[split_pos] = 10**6  # splits on a feature that doesn't exist
        wide["params"][feat_name] = feats
        with pytest.raises(CostModelError):  # predict_batch() would IndexError
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
        for header in (
            {"ckpt_v": CHECKPOINT_SCHEMA_VERSION + 1},
            {"ckpt_v": CHECKPOINT_SCHEMA_VERSION},  # no fields
            {"ckpt_v": 1},  # no fields, version 1
        ):
            with pytest.raises(CostModelError):
                state_from_wire(json.dumps(header).encode() + b"\n")
        with pytest.raises(CostModelError):  # a parsed envelope is not bytes
            state_from_wire(json.loads(v1_envelope(TenSetMLP().save_state(), 1)))

    def test_unpaired_norm_stats_rejected(self, training_data):
        """Weights without the sigma they were normalized by must be a
        cold start, not a silently denormalized model."""
        batch, lats, keys = training_data
        model = TenSetMLP(seed=0)
        model.fit(model.featurize_batch(batch), lats, keys, train=TRAIN, rng=make_rng(1))
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
        batch, lats, keys = training_data
        model = TenSetMLP(seed=0)
        model.fit(model.featurize_batch(batch), lats, keys, train=TRAIN, rng=make_rng(1))
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
        state = TenSetMLP(seed=0).save_state()
        name = next(iter(state["params"]))
        # same byte count as the float64 weights: only the dtype is wrong
        header, tail = _header(state_to_wire(state, trained_trials=1))
        assert header["arrays"][0][:2] == [name, "<f8"]
        header["arrays"][0][1] = "<U2"
        with pytest.raises(CostModelError):
            state_from_wire(_with_header(header, tail))
        shape = state["params"][name].shape
        hostile = dict(state, params={**state["params"], name: np.full(shape, "x", dtype="<U1")})
        with pytest.raises(CostModelError):
            state_from_wire(v1_envelope(hostile, 1))

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


#: Any value a JSON body can hold (``1e999`` parses as inf, so floats
#: include the infinities; NaN too, which Python's json also reads).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _blob(factory=TenSetMLP, trained_trials: int = 1) -> bytes:
    return state_to_wire(factory(seed=0).save_state(), trained_trials)


def _header(blob: bytes) -> tuple[dict, bytes]:
    """A blob's parsed header line and the raw bytes after it."""
    line, tail = blob.split(b"\n", 1)
    return json.loads(line), tail


def _with_header(header, tail: bytes) -> bytes:
    return json.dumps(header).encode() + b"\n" + tail


def _with_nan(blob: bytes, which: int, at: int) -> bytes:
    """``blob`` with a NaN written over one element of one float array."""
    header, tail = _header(blob)
    floats, offset = [], 0
    for _, dtype, shape in header["arrays"]:
        dtype, count = np.dtype(dtype), int(np.prod(shape))
        if dtype.kind == "f" and count:
            floats.append((offset, dtype, count))
        offset += count * dtype.itemsize
    start, dtype, count = floats[which % len(floats)]
    pos = start + (at % count) * dtype.itemsize
    raw = bytearray(tail)
    raw[pos : pos + dtype.itemsize] = np.array(np.nan, dtype).tobytes()
    return blob[: len(blob) - len(tail)] + bytes(raw)


def _paths(value, at=()):
    """Every path into a JSON value (dict keys and list indices)."""
    yield at
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, (*at, key))


def _replace(value, path, new):
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _replace(value[path[0]], path[1:], new)
    return out


def _decodes_or_refuses(blob: bytes) -> None:
    """A state, or CostModelError — nothing else out of either decoder,
    and the lease's base64 form decodes the same way."""
    try:
        assert isinstance(state_from_wire(blob), dict)
    except CostModelError:
        assert checkpoint_from_wire(_as_lease(blob)) is None
    else:
        assert isinstance(checkpoint_from_wire(_as_lease(blob)), dict)


def _refused(blob: bytes) -> None:
    with pytest.raises(CostModelError):
        state_from_wire(blob)
    assert checkpoint_from_wire(_as_lease(blob)) is None


#: A real blob, damaged so that no decoder may accept it: arbitrary
#: bytes, a truncation or extension by k bytes, or a NaN in a float array.
def _damaged(blob: bytes):
    return st.one_of(
        st.binary(max_size=300),
        st.integers(1, len(blob)).map(lambda k: blob[:-k]),
        st.binary(min_size=1, max_size=16).map(lambda extra: blob + extra),
        st.tuples(st.integers(0, 99), st.integers(0, 10**6)).map(
            lambda pick: _with_nan(blob, *pick)
        ),
    )


#: (header path, value): hostile header values, each one malformed.
HOSTILE_HEADERS = {
    "ckpt_v_1e999": (("ckpt_v",), float("inf")),
    "ckpt_v_true": (("ckpt_v",), True),
    "state_v_1e999": (("state_v",), float("inf")),
    "state_v_negative": (("state_v",), -1),
    "trained_trials_bool": (("trained_trials",), True),
    "trained_trials_negative": (("trained_trials",), -5),
    "shape_1e999": (("arrays", 0, 2, 0), float("inf")),
    "shape_negative": (("arrays", 0, 2, 0), -1),
    "shape_bool": (("arrays", 0, 2, 0), True),
    "shape_huge": (("arrays", 0, 2), [0, 2**70]),
    "dtype_unicode": (("arrays", 0, 1), "<U4"),
    "dtype_object": (("arrays", 0, 1), "O"),
    "dtype_big_endian": (("arrays", 0, 1), ">f8"),
    "dtype_junk": (("arrays", 0, 1), "not a dtype"),
    "duplicate_names": (("arrays", 1, 0), "__first__"),
    "arrays_not_a_list": (("arrays",), {"w": ["<f8", [1]]}),
    "entry_too_short": (("arrays", 0), ["w", "<f8"]),
    "kind_not_a_string": (("kind",), 7),
    "arch_not_an_object": (("arch",), [1, 2]),
}


class TestWireFuzz:
    """Checkpoints arrive off the wire (a completion's blob, a lease's
    base64 string): any bytes, any JSON in the header."""

    @pytest.mark.parametrize("field", ["ckpt_v", "state_v", "shape"])
    def test_huge_number_is_malformed_not_overflow(self, field):
        """Found by hand: ``int(1e999)`` raised OverflowError out of the decode."""
        header, tail = _header(_blob())
        path = ("arrays", 0, 2, 0) if field == "shape" else (field,)
        hostile = _replace(header, path, json.loads("1e999"))
        _refused(_with_header(hostile, tail))

    @pytest.mark.parametrize("case", sorted(HOSTILE_HEADERS))
    def test_hostile_header_value_is_refused(self, case):
        header, tail = _header(_blob())
        path, value = HOSTILE_HEADERS[case]
        if value == "__first__":
            value = header["arrays"][0][0]
        _refused(_with_header(_replace(header, path, value), tail))

    @given(value=JSON_VALUES)
    @settings(max_examples=150, deadline=None)
    def test_any_json_value(self, value):
        with pytest.raises(CostModelError):
            state_from_wire(value)  # only bytes decode
        decoded = checkpoint_from_wire(value)
        assert decoded is None or isinstance(decoded, dict)
        _decodes_or_refuses(json.dumps(value).encode())

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_one_damaged_field_of_a_real_envelope(self, data):
        header, tail = _header(_blob())
        path = data.draw(st.sampled_from(list(_paths(header))))
        _decodes_or_refuses(_with_header(_replace(header, path, data.draw(JSON_VALUES)), tail))

    @given(blob=_damaged(_blob()))
    @settings(max_examples=200, deadline=None)
    def test_damaged_bytes_are_refused(self, blob):
        _refused(blob)

    def test_a_version_1_envelope_with_one_damaged_field(self):
        envelope = json.loads(v1_envelope(TenSetMLP(seed=0).save_state(), 1))
        for path in _paths(envelope):
            for value in (None, json.loads("1e999"), "x", [], {}):
                _decodes_or_refuses((json.dumps(_replace(envelope, path, value)) + "\n").encode())

    def test_complete_with_huge_number_checkpoint_finishes_the_job(self, tmp_path):
        """``complete`` used to raise after ingesting the rows, leaving the
        job running with its lease held (a 500 over HTTP)."""
        engine = JobEngine(tmp_path)
        job_id = engine.submit("bert_tiny", rounds=1, scale="smoke", top_k_tasks=1)
        leased = engine.lease("r1")
        rows = [{"task_key": "t", "config_key": f"c{i}", "latency": 1e-3} for i in range(3)]
        header, tail = _header(_blob(PaCM))
        hostile = _with_header(_replace(header, ("state_v",), json.loads("1e999")), tail)
        done = engine.complete(
            leased["lease_id"], "r1", job_id, {"final_latency": 1.0}, rows, blob=hostile
        )
        assert done["checkpoint_stored"] is False and done["state"] == "done"
        assert engine.queue.get(job_id).state.value == "done"

    def test_a_damaged_upload_leaves_the_stored_checkpoint_alone(self, tmp_path):
        """Through ``JobEngine.complete``: every damaged blob (and a valid
        one of the wrong kind, or a parsed envelope) ends its job done,
        stores nothing, and the stored checkpoint keeps its bytes and
        digest."""
        engine = JobEngine(tmp_path)
        rows = [{"task_key": "t", "config_key": f"c{i}", "latency": 1e-3} for i in range(3)]
        good = _blob(PaCM, trained_trials=3)

        def deliver(blob):
            job_id = engine.submit("bert_tiny", rounds=1, scale="smoke", top_k_tasks=1)
            leased = engine.lease("r1")
            done = engine.complete(
                leased["lease_id"], "r1", job_id, {"final_latency": 1.0}, rows, blob=blob
            )
            assert done["state"] == "done"
            assert engine.queue.get(job_id).state.value == "done"
            return done

        first = deliver(good)
        assert first["checkpoint_digest"] == hashlib.sha256(good).hexdigest()
        key = engine._store_key_for(engine.queue.get(first["job_id"]))
        path = engine.models.path_for(key, "pacm")
        assert path.read_bytes() == good

        def refused(blob):
            done = deliver(blob)
            assert done["checkpoint_stored"] is False
            assert done["checkpoint_digest"] is None
            assert path.read_bytes() == good
            assert engine.models.load_wire(key, "pacm", have=first["checkpoint_digest"]) == {
                "ref": first["checkpoint_digest"],
                "trained_trials": 3,
            }

        refused(_blob(TenSetMLP, trained_trials=3))  # valid, but not this job's kind
        refused(json.loads(v1_envelope(PaCM(seed=0).save_state(), 3)))  # not bytes

        @given(blob=_damaged(good))
        @settings(max_examples=40, deadline=None)
        def any_damage(blob):
            refused(blob)

        any_damage()

    def test_a_lease_checkpoint_decodes_or_cold_starts(self):
        """``TuningRunner._model_state`` over any lease ``checkpoint``
        value: a state, or None (a cold start), never an exception."""
        from repro.serve.runner import TuningRunner

        state = TenSetMLP(seed=0).save_state()
        runner = TuningRunner(client=object())
        runner._held = ("d" * 64, {**state, "trained_trials": 4})
        assert runner._model_state({"ref": "d" * 64})["trained_trials"] == 4
        assert runner._model_state(_as_lease(state_to_wire(state, 6)))["trained_trials"] == 6
        assert runner._model_state(_as_lease(v1_envelope(state, 2)))["trained_trials"] == 2
        for junk in (
            None,
            {"ref": 5},
            {"ref": "e" * 64},
            {"ref": ["d" * 64]},
            {"blob": "!!"},
            "!!",
            _as_lease(b"junk"),
            _as_lease(_blob()[:-1]),
            json.loads(v1_envelope(state, 2)),  # an envelope, not the file
        ):
            assert runner._model_state(junk) is None, junk

        @given(value=JSON_VALUES)
        @settings(max_examples=150, deadline=None)
        def any_value(value):
            decoded = runner._model_state(value)
            assert decoded is None or isinstance(decoded, dict)

        any_value()


class TestModelStore:
    def _key(self, a100):
        tasks = make_tasks([SubgraphTask(ops.matmul(128, 128, 128), 1)], a100)
        return store_key_for_tasks(tasks, "pruner")

    def test_save_load_round_trip(self, tmp_path, a100):
        store = ModelStore(tmp_path)
        key = self._key(a100)
        model = PaCM(seed=0)
        assert store.load_wire(key, "pacm") is None
        assert store.save_state(key, model.save_state(), trained_trials=10)
        restored = PaCM(seed=3)
        restored.load_state(checkpoint_from_wire(store.load_wire(key, "pacm")))
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

    def test_the_stored_file_is_the_uploaded_bytes(self, tmp_path, a100):
        store = ModelStore(tmp_path)
        key = self._key(a100)
        blob = state_to_wire(TenSetMLP(seed=1).save_state(), trained_trials=5)
        digest = store.save_wire(key, "mlp", blob)
        assert digest == hashlib.sha256(blob).hexdigest()
        assert store.path_for(key, "mlp").read_bytes() == blob
        assert store.load_wire(key, "mlp") == _as_lease(blob)
        assert store.load_wire(key, "mlp", have=digest) == {"ref": digest, "trained_trials": 5}

    def test_a_version_1_file_reads_and_ranks(self, tmp_path, a100):
        """A checkpoint file written before the blob format is leased as
        it is, decodes, and its header's count still arbitrates."""
        store = ModelStore(tmp_path)
        key = self._key(a100)
        store.root.mkdir()
        state = TenSetMLP(seed=1).save_state()
        store.path_for(key, "mlp").write_bytes(v1_envelope(state, 50))
        assert checkpoint_from_wire(store.load_wire(key, "mlp"))["trained_trials"] == 50
        assert not store.save_wire(key, "mlp", state_to_wire(state, 10))  # stale
        blob = state_to_wire(state, 60)
        assert store.save_wire(key, "mlp", blob) == hashlib.sha256(blob).hexdigest()
        assert store.path_for(key, "mlp").read_bytes() == blob

    def test_an_inflated_count_is_lowered_in_the_header_only(self, tmp_path, a100):
        store = ModelStore(tmp_path)
        key = self._key(a100)
        blob = state_to_wire(TenSetMLP(seed=1).save_state(), trained_trials=10**6)
        digest = store.save_wire(key, "mlp", blob, max_trials=12)
        stored = store.path_for(key, "mlp").read_bytes()
        assert digest == hashlib.sha256(stored).hexdigest() != hashlib.sha256(blob).hexdigest()
        (header, tail), (sent, sent_tail) = _header(stored), _header(blob)
        assert tail == sent_tail  # the arrays' bytes as uploaded
        assert header == {**sent, "trained_trials": 12}
        assert store.trained_trials(key, "mlp") == 12

    def test_kinds_stored_side_by_side(self, tmp_path, a100):
        store = ModelStore(tmp_path)
        key = self._key(a100)
        assert store.save_state(key, TenSetMLP().save_state(), trained_trials=1)
        assert store.save_state(key, PaCM().save_state(), trained_trials=2)
        assert checkpoint_from_wire(store.load_wire(key, "mlp"))["kind"] == "mlp"
        assert checkpoint_from_wire(store.load_wire(key, "pacm"))["kind"] == "pacm"
        assert len(store.stats()) == 2

    def test_damaged_index_entries_tolerated(self, tmp_path, a100):
        """A hand-damaged index (non-dict entry, garbage counter) must
        degrade gracefully — the lease hot path keeps serving."""
        store = ModelStore(tmp_path)
        key = self._key(a100)
        assert store.save_state(key, TenSetMLP().save_state(), trained_trials=5)
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
        assert store.save_state(key, TenSetMLP().save_state(), trained_trials=7)
        assert store.trained_trials(key, "mlp") == 7

        # a fully non-dict entry is repaired by the next save
        filename = store.path_for(key, "mlp").name
        index = json.loads(index_path.read_text())
        index[filename] = ["damaged"]
        index_path.write_text(json.dumps(index))
        assert store.stats() == []  # skipped, not raised
        assert store.save_state(key, TenSetMLP().save_state(), trained_trials=8)
        (stat,) = store.stats()
        assert stat["kind"] == "mlp" and stat["device"] == "a100"


class TestTunerWarmStart:
    """Warm starts are jobs: each run is one bert_tiny job through a
    fresh :class:`JobEngine` over the shared cache dir, so the lease
    ships the seed rows and checkpoint and the completion stores what
    the runner trained."""

    @staticmethod
    def _job(cache, method="pruner", rounds=2) -> dict:
        engine = JobEngine(cache)
        job_id = engine.submit(
            "bert_tiny", method=method, rounds=rounds, scale="smoke", top_k_tasks=1
        )
        drain(engine)
        return engine.result(job_id)

    @staticmethod
    def _key(method="pruner"):
        subgraphs = network_tasks("bert_tiny", top_k=1)
        return store_key_for_tasks(
            api.tasks_for(method, subgraphs, get_device("a100")), method
        )

    def test_cache_dir_saves_and_reloads_checkpoint(self, tmp_path):
        """Job 1 checkpoints its trained model; job 2 restores it (no
        cold retrain from round 0) and is no worse."""
        first = self._job(tmp_path, rounds=3)
        assert not first["warm_model"]  # nothing to restore on a cold store
        store = ModelStore(tmp_path)
        assert store.trained_trials(self._key(), "pacm") == first["total_trials"]

        second = self._job(tmp_path, rounds=3)
        assert second["warm_model"]
        assert second["seeded_trials"] > 0
        assert unwire_float(second["final_latency"]) <= unwire_float(
            first["final_latency"]
        )

    def test_checkpoint_warm_starts_without_records(self, tmp_path):
        """The checkpoint alone (record file deleted) still warm-starts
        the model."""
        self._job(tmp_path, rounds=3)
        RecordStore(tmp_path).path_for(self._key()).unlink()  # keep models/
        result = self._job(tmp_path, rounds=2)
        assert result["warm_model"]
        assert result["seeded_trials"] == 0

    def test_untrained_warm_run_does_not_rerank_checkpoint(self, tmp_path):
        """A warm-started job whose budget is already covered (so the
        model never retrains) must not re-save the checkpoint with an
        inflated trial count — that would make staleness arbitration
        reject genuinely fresher checkpoints later."""
        first = self._job(tmp_path, rounds=2)
        store = ModelStore(tmp_path)
        key = self._key()
        ranked = store.trained_trials(key, "pacm")
        assert ranked > 0
        stamp = store.path_for(key, "pacm").stat().st_mtime_ns
        second = self._job(tmp_path, rounds=2)
        assert second["warm_model"] and second["fresh_trials"] == 0
        assert store.trained_trials(key, "pacm") == ranked  # rank unchanged
        assert store.path_for(key, "pacm").stat().st_mtime_ns == stamp
        assert first["total_trials"] == second["total_trials"]

    def test_incompatible_checkpoint_falls_back_to_cold(self, tmp_path):
        """A checkpoint from a different model kind reads as 'no
        checkpoint', never an error."""
        self._job(tmp_path, method="ansor", rounds=2)
        store = ModelStore(tmp_path)
        # plant a PaCM state where the ansor job expects its GBDT one
        masquerade = state_to_wire(PaCM().save_state(), trained_trials=999)
        store.path_for(self._key("ansor"), "gbdt").write_bytes(masquerade)
        result = self._job(tmp_path, method="ansor", rounds=2)
        assert not result["warm_model"]  # kind mismatch -> cold start, no crash

    def test_warm_model_retrains_when_records_outgrow_checkpoint(self, tmp_path):
        """A checkpoint older than the record store must not freeze the
        model at round 0: the job retrains on the (richer) seed rows
        while still counting as warm-started."""
        self._job(tmp_path, rounds=2)
        key = self._key()
        # grow the record file past the checkpoint's training set with
        # rows measured elsewhere, none of which trained it
        self._job(tmp_path / "elsewhere", rounds=4)
        rows = RecordStore(tmp_path / "elsewhere").load_rows(key)
        assert RecordStore(tmp_path).append_rows(key, rows) > 0
        store = ModelStore(tmp_path)
        stale_rank = store.trained_trials(key, "pacm")
        result = self._job(tmp_path, rounds=4)
        assert result["warm_model"]
        assert result["total_trials"] > stale_rank
        # the round-0 retrain ran and re-ranked the checkpoint over the
        # full seed, not the stale count
        assert store.trained_trials(key, "pacm") == result["total_trials"]

    def test_warm_model_skips_retrain_when_checkpoint_covers_seed(self, tmp_path):
        """The fully-covered case keeps the cheap path: same job twice,
        the checkpoint rank equals the seed size, nothing retrains."""
        self._job(tmp_path, rounds=2)
        store = ModelStore(tmp_path)
        stamp = store.path_for(self._key(), "pacm").stat().st_mtime_ns
        result = self._job(tmp_path, rounds=2)
        assert result["warm_model"] and result["fresh_trials"] == 0
        assert store.path_for(self._key(), "pacm").stat().st_mtime_ns == stamp

    def test_compacted_records_do_not_freeze_checkpoint(self, tmp_path):
        """The record file shrinks below the checkpoint's rank (an
        operator trimmed it); a warm job extending that model must still
        replace the stored checkpoint (its rank keeps the inherited
        evidence)."""
        first = self._job(tmp_path, rounds=3)
        key = self._key()
        store = ModelStore(tmp_path)
        rank = store.trained_trials(key, "pacm")
        assert rank == first["total_trials"]
        _truncate_to_two_lines(RecordStore(tmp_path).path_for(key))
        stamp = store.path_for(key, "pacm").stat().st_mtime_ns
        result = self._job(tmp_path, rounds=3)
        assert result["warm_model"] and result["fresh_trials"] > 0
        # the retrained-and-extended model replaced the stored file and
        # its rank never regressed below the inherited evidence
        assert store.path_for(key, "pacm").stat().st_mtime_ns != stamp
        assert store.trained_trials(key, "pacm") >= rank

    def test_gbdt_refit_does_not_inherit_checkpoint_rank(self, tmp_path):
        """GBDT rebuilds its trees on every fit, so a warm job over a
        trimmed record file must rank its small refit honestly — the
        store keeps the genuinely better-trained checkpoint."""
        first = self._job(tmp_path, method="ansor", rounds=3)
        key = self._key("ansor")
        store = ModelStore(tmp_path)
        rank = store.trained_trials(key, "gbdt")
        assert rank == first["total_trials"]
        _truncate_to_two_lines(RecordStore(tmp_path).path_for(key))
        result = self._job(tmp_path, method="ansor", rounds=1)
        assert result["warm_model"]
        assert result["total_trials"] < rank  # the refit saw less evidence
        assert store.trained_trials(key, "gbdt") == rank  # old rank kept

    def test_model_kind_mapping(self):
        assert api.model_kind("pruner") == "pacm"
        assert api.model_kind("ansor") == "gbdt"
        assert api.model_kind("tensetmlp") == "mlp"
        assert api.model_kind("tlp") == "tlp"
        with pytest.raises(Exception):
            api.model_kind("bogus")
