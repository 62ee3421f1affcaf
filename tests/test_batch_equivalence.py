"""Equivalence suite: the batched pipeline against frozen references.

A program is a row of a :class:`~repro.schedule.batch.CandidateBatch`:
``lower()`` is row 0 of a one-row ``lower_batch``, and symbols, the
draft score, features and the simulator take only batches, so comparing
the scalar and batch paths would compare the code with itself.  What
pins them instead:

* **Data.**  ``fixtures/lowering_golden.json`` (every
  ``LoweredProgram`` and ``DataflowBlock`` field) and
  ``fixtures/draft_golden.json`` (S1..S9, the penalties, ``density``,
  both products, PSA latency / score on four devices under both Table 10
  switches) were first written on the last commit that still carried
  the independent scalar ``_lower_tiled`` / ``_lower_flat`` /
  ``compute_penalties`` / ``SymbolBasedAnalyzer.latency`` (where the
  batch functions reproduced them bit for bit too);
  :func:`lowering_golden` / :func:`draft_golden` over ``lower_batch``
  rewrite them byte for byte.  ``lower_batch`` and ``lower()`` one
  config at a time (its rows concatenated, for the draft) must
  reproduce both files; the first ``GOLDEN_ROWS`` rows of a population (a quarter of that in each
  of the four per-device blocks) are stored in full, floats as
  ``float.hex()``, the rest as one SHA-256 over the packed columns.
  A TensorCore program on k80 is left out: the scalar twin raised
  there, ``test_tensorcore_without_tensorcores_scores_minus_inf`` pins
  what is kept.
* **Properties** that need no reference: unpacking a batch into
  programs and concatenating their rows again gives the same arrays,
  rows do not depend on their neighbours (``TestRowsAreIndependent``),
  and the one-program doors the end-to-end benchmark still calls read
  their program's own row (``TestScalarDoors``).
* **Independent comparisons** that remain: the feature encoders and
  ``predict_batch`` against programs lowered one by one, the GA
  operators against ``ScheduleSpace.validate``, and the Pruner policy
  against a per-program mirror of its verify stage.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from doubles import RandomModel, random_model_clock

from repro.config import SearchConfig
from repro.core.analyzer import (
    SymbolBasedAnalyzer,
    is_launchable,
    is_launchable_mask,
)
from repro.core.penalty import Penalties, compute_penalties
from repro.core.symbols import Symbols, extract_symbols_batch
from repro.costmodel import GBDTModel, PaCM, TenSetMLP, TLPModel
from repro.features.dataflow import dataflow_tensor_batch
from repro.features.primitives import primitive_features, primitive_tensor_batch
from repro.features.statement import statement_matrix_batch
from repro.hardware.device import get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower
from repro.schedule.batch import BLOCK_KINDS, CandidateBatch, ConfigBatch, lower_batch
from repro.schedule.sampler import random_batch, random_population
from repro.schedule.mutate import crossover_pairs, mutate_batch
from repro.search import PrunerPolicy, RecordLog
from repro.search.task import TuningTask
from repro.timemodel import SimClock

WORKLOADS = [
    pytest.param(ops.matmul(256, 256, 256), False, id="matmul"),
    pytest.param(ops.conv2d(1, 32, 28, 28, 64, 3), False, id="conv2d"),
    pytest.param(ops.matmul(128, 128, 128, dtype="float16"), True, id="tensorcore"),
    pytest.param(ops.elementwise((64, 128), n_inputs=2), False, id="elementwise"),
    pytest.param(ops.pool2d(1, 32, 28, 28, 2, 2), False, id="pool"),
]
CLASSES = [p.id for p in WORKLOADS]


def _space_and_configs(wl, tensorcore, n=60, seed=0, splitk=None):
    splitk = tensorcore if splitk is None else splitk
    space = generate_sketch(wl, tensorcore=tensorcore, allow_splitk=splitk)
    configs = random_population(space, make_rng(seed), n)
    return space, configs


# ----------------------------------------------------------------------
# frozen references
# ----------------------------------------------------------------------
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_ROWS = 24
DEVICES = ("a100", "t4", "orin", "k80")

#: case id -> (workload, tensorcore, allow_splitk, population, seed): the
#: populations the scalar-vs-batch tests drew, plus the operator classes
#: they left out
_EXTRA_CASES = {
    "matmul-splitk-60": (ops.matmul(256, 256, 1024), False, True, 60, 0),
    "depthwise-60": (ops.depthwise_conv2d(1, 32, 28, 28, 3), False, False, 60, 0),
    "conv2d-transpose-60": (ops.conv2d_transpose(1, 64, 8, 8, 32, 4), False, False, 60, 0),
}
LOWERING_CASES = {
    **{
        f"{p.id}-{n}": (p.values[0], p.values[1], p.values[1], n, 0)
        for p in WORKLOADS
        for n in (60, 25)
    },
    **_EXTRA_CASES,
}
DRAFT_CASES = {
    **{case: spec for case, spec in LOWERING_CASES.items() if case.endswith("-60")},
    "matmul128-seed1-30": (ops.matmul(128, 128, 128), False, False, 30, 1),
    "matmul128-seed2-30": (ops.matmul(128, 128, 128), False, False, 30, 2),
}

_PROG_INTS = (
    "tensorcore",
    "n_blocks",
    "threads_per_block",
    "vthreads",
    "acc_regs",
    "reg_elems",
    "smem_elems",
    "grid",
    "trans_span",
    "unroll",
    "vector",
    "splitk",
)
_PROG_FLOATS = ("thread_compute", "traffic_elems", "flops", "tc_align")
# DataflowBlock attribute -> BlockArrays attribute
_BLOCK_INTS = {
    "src_level": "src",
    "dst_level": "dst",
    "innermost_span": "span",
    "vector": "vector",
    "dtype_bytes": "dtype_bytes",
}
_BLOCK_FLOATS = {
    "traffic_elems": "traffic",
    "alloc_elems": "alloc",
    "reuse": "reuse",
    "compute_ops": "compute",
}
_SYMBOLS = tuple(f.name for f in fields(Symbols))
_PENALTIES = tuple(f.name for f in fields(Penalties))
_PRODUCTS = ("density", "compute_product", "memory_product")
# column suffix -> (use_compute_penalty, use_memory_penalty), Table 10
_SWITCHES = {"": (True, True), "_no_compute": (False, True), "_no_memory": (True, False)}


def _one_by_one(space, configs):
    """The one-row door: every config through scalar ``lower``."""
    return [lower(space, c) for c in configs]


def _rows_one_by_one(space, configs):
    """The rows of :func:`_one_by_one`'s programs, concatenated."""
    return CandidateBatch.concat([p.row for p in _one_by_one(space, configs)])


def _ints(values) -> np.ndarray:
    return np.array(list(values), dtype=np.int64)


def _floats(values) -> np.ndarray:
    return np.array(list(values), dtype=np.float64)


def _lowering_columns(lowered) -> dict[str, np.ndarray]:
    """Every program and dataflow-block field as one ``(N,)`` column,
    from a program list or from the arrays of a ``CandidateBatch``."""
    if isinstance(lowered, CandidateBatch):
        cols = {
            name: getattr(lowered, "threads" if name == "threads_per_block" else name)
            for name in _PROG_INTS + _PROG_FLOATS
        }
        assert (lowered.blocks.kind >= 0).all()  # one space: no padding
        for b in range(lowered.blocks.kind.shape[1]):
            cols[f"block{b}.kind"] = lowered.blocks.kind[:, b]
            for name, array in (_BLOCK_INTS | _BLOCK_FLOATS).items():
                cols[f"block{b}.{name}"] = getattr(lowered.blocks, array)[:, b]
        for name, col in cols.items():
            if name.split(".")[-1] in _PROG_FLOATS + tuple(_BLOCK_FLOATS):
                assert col.dtype == np.float64, name
            else:  # bool or int; a float array here fails the safe cast
                cols[name] = col.astype(np.int64, casting="safe")
        return cols
    cols = {n: _ints(getattr(p, n) for p in lowered) for n in _PROG_INTS}
    cols |= {n: _floats(getattr(p, n) for p in lowered) for n in _PROG_FLOATS}
    (n_blocks,) = {len(p.blocks) for p in lowered}
    for b in range(n_blocks):
        blocks = [p.blocks[b] for p in lowered]
        cols[f"block{b}.kind"] = _ints(BLOCK_KINDS.index(k.kind) for k in blocks)
        for name in _BLOCK_INTS:
            cols[f"block{b}.{name}"] = _ints(getattr(k, name) for k in blocks)
        for name in _BLOCK_FLOATS:
            cols[f"block{b}.{name}"] = _floats(getattr(k, name) for k in blocks)
    return cols


def _symbol_columns(batch: CandidateBatch) -> dict[str, np.ndarray]:
    symbols = extract_symbols_batch(batch)
    return {name: getattr(symbols, name) for name in _SYMBOLS}


def _draft_columns(batch: CandidateBatch, device: str) -> dict[str, np.ndarray]:
    """Penalties, products, launch mask and PSA latency / score under
    the three switch settings on one device."""
    dev = get_device(device)
    pen = compute_penalties(extract_symbols_batch(batch), dev, batch.dtype_bytes)
    cols = {name: getattr(pen, name) for name in _PENALTIES}
    cols |= {name: getattr(pen, name)() for name in _PRODUCTS}
    cols["launchable"] = is_launchable_mask(batch, dev).astype(np.int64)
    for suffix, (c, m) in _SWITCHES.items():
        analyzer = SymbolBasedAnalyzer(dev, use_compute_penalty=c, use_memory_penalty=m)
        cols["latency" + suffix] = analyzer.latency_batch(batch)
        cols["score" + suffix] = analyzer.score_batch(batch)
    return cols


def _frozen(columns: dict[str, np.ndarray], rows: int = GOLDEN_ROWS) -> dict:
    """The first ``rows`` rows in full, one digest over the rest."""
    head, rest = {}, hashlib.sha256()
    for name in sorted(columns):
        col = columns[name]
        assert col.dtype in (np.int64, np.float64), (name, col.dtype)
        top = col[:rows].tolist()
        head[name] = [x.hex() for x in top] if col.dtype == np.float64 else top
        rest.update(name.encode() + np.ascontiguousarray(col[rows:]).tobytes())
    return {"head": head, "rest_sha256": rest.hexdigest()}


def _case_inputs(spec):
    wl, tensorcore, splitk, n, seed = spec
    space, configs = _space_and_configs(wl, tensorcore, n, seed, splitk)
    digest = hashlib.sha256("\n".join(c.key for c in configs).encode()).hexdigest()
    return space, configs, digest


def _lowering_case(case: str, lower_all) -> dict:
    space, configs, digest = _case_inputs(LOWERING_CASES[case])
    return {"inputs_sha256": digest, **_frozen(_lowering_columns(lower_all(space, configs)))}


def _draft_case(case: str, lower_all, devices=DEVICES) -> dict:
    space, configs, digest = _case_inputs(DRAFT_CASES[case])
    lowered = lower_all(space, configs)
    return {
        "inputs_sha256": digest,
        "symbols": _frozen(_symbol_columns(lowered)),
        "devices": {
            # 24 full rows a class: 24 of its symbols, 6 on each device
            device: _frozen(_draft_columns(lowered, device), GOLDEN_ROWS // len(DEVICES))
            for device in devices
            if not (space.tensorcore and device == "k80")
        },
    }


def lowering_golden(lower_all) -> dict:
    """What ``fixtures/lowering_golden.json`` holds (module docstring)."""
    return {case: _lowering_case(case, lower_all) for case in LOWERING_CASES}


def draft_golden(lower_all) -> dict:
    """What ``fixtures/draft_golden.json`` holds (module docstring)."""
    return {case: _draft_case(case, lower_all) for case in DRAFT_CASES}


@pytest.fixture(scope="module")
def frozen_lowering():
    return json.loads((FIXTURES / "lowering_golden.json").read_text())


@pytest.fixture(scope="module")
def frozen_draft():
    return json.loads((FIXTURES / "draft_golden.json").read_text())


BOTH_WAYS = pytest.mark.parametrize(
    "lower_all", [lower_batch, _one_by_one], ids=["batch", "door"]
)
#: the same two ways, each as one batch for the batch-only draft code
BOTH_WAYS_AS_ROWS = pytest.mark.parametrize(
    "lower_all", [lower_batch, _rows_one_by_one], ids=["batch", "door"]
)


class TestLowerBatch:
    @pytest.mark.parametrize("cls", CLASSES)
    def test_fields_match_scalar_lower(self, cls, frozen_lowering):
        """``lower_batch`` and the one-row door both reproduce the scalar
        ``lower`` frozen in ``lowering_golden.json`` (60 configs a class)."""
        for lower_all in (lower_batch, _one_by_one):
            assert _lowering_case(f"{cls}-60", lower_all) == frozen_lowering[f"{cls}-60"]

    @pytest.mark.parametrize("cls", CLASSES)
    def test_blocks_match_scalar_lower(self, cls, frozen_lowering):
        """The 25-config populations the block comparison drew."""
        for lower_all in (lower_batch, _one_by_one):
            assert _lowering_case(f"{cls}-25", lower_all) == frozen_lowering[f"{cls}-25"]

    @BOTH_WAYS
    @pytest.mark.parametrize("case", list(_EXTRA_CASES))
    def test_more_operator_classes_match_frozen_lowering(
        self, case, lower_all, frozen_lowering
    ):
        assert _lowering_case(case, lower_all) == frozen_lowering[case]

    def test_frozen_file_has_no_other_cases(self, frozen_lowering, frozen_draft):
        assert set(frozen_lowering) == set(LOWERING_CASES)
        assert set(frozen_draft) == set(DRAFT_CASES)

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
    @pytest.mark.parametrize("cls", CLASSES)
    @pytest.mark.parametrize("device", ["a100", "orin", "t4"])
    def test_scores_bit_identical(self, cls, device, frozen_draft):
        """Penalties, launch mask, latency and score (incl. -inf) of the
        frozen scalar analyzer, from ``lower_batch`` rows and from
        ``lower()``'s rows."""
        want = frozen_draft[f"{cls}-60"]["devices"][device]
        for lower_all in (lower_batch, _rows_one_by_one):
            got = _draft_case(f"{cls}-60", lower_all, devices=(device,))
            assert got["devices"] == {device: want}

    @BOTH_WAYS_AS_ROWS
    @pytest.mark.parametrize("case", list(_EXTRA_CASES))
    def test_more_operator_classes_match_frozen_draft(self, case, lower_all, frozen_draft):
        assert _draft_case(case, lower_all) == frozen_draft[case]

    @BOTH_WAYS_AS_ROWS
    @pytest.mark.parametrize("cls", CLASSES)
    def test_k80_matches_frozen_draft(self, cls, lower_all, frozen_draft):
        """The tight device: most rows unlaunchable, no TensorCores."""
        got = _draft_case(f"{cls}-60", lower_all, devices=("k80",))
        want = frozen_draft[f"{cls}-60"]["devices"]
        assert got["devices"] == {d: want[d] for d in want if d == "k80"}

    def test_scores_match_without_tensorcores(self):
        """k80 has no TensorCores: the batch path must not ask for their peak."""
        dev = get_device("k80")
        analyzer = SymbolBasedAnalyzer(dev)
        for wl in (ops.matmul(256, 256, 256), ops.conv2d(1, 32, 28, 28, 64, 3)):
            space, configs = _space_and_configs(wl, False)
            scores = analyzer.score_batch(lower_batch(space, configs))
            assert np.isfinite(scores).any()
            rows = [analyzer.score_batch(p.row)[0] for p in _one_by_one(space, configs)]
            assert scores.tolist() == rows

    @pytest.mark.filterwarnings("error")
    def test_tensorcore_without_tensorcores_scores_minus_inf(self):
        """A TensorCore program on k80 has peak 0: infinite latency and
        ``-inf`` for a population and for a one-row batch, with no numpy
        warning (the scalar twin raised ``DeviceError`` here; the batch
        answer is the one kept)."""
        analyzer = SymbolBasedAnalyzer(get_device("k80"))
        wl, tc = WORKLOADS[CLASSES.index("tensorcore")].values
        space, configs = _space_and_configs(wl, tc)
        for batch in (lower_batch(space, configs), lower(space, configs[0]).row):
            assert (analyzer.latency_batch(batch) == math.inf).all()
            assert (analyzer.score_batch(batch) == -math.inf).all()

    def test_symbols_match(self, frozen_draft):
        """S1..S9 of the 30 seed-1 matmul configs, and of every class."""
        for case, spec in DRAFT_CASES.items():
            space, configs, _ = _case_inputs(spec)
            for lower_all in (lower_batch, _rows_one_by_one):
                got = _frozen(_symbol_columns(lower_all(space, configs)))
                assert got == frozen_draft[case]["symbols"], case

    def test_ablation_switches_match(self, frozen_draft):
        """Table 10 switches on the 30 seed-2 matmul configs: the
        ``*_no_compute`` / ``*_no_memory`` columns are part of every
        frozen device block, and they differ from the full model."""
        for case in ("matmul128-seed1-30", "matmul128-seed2-30"):
            for lower_all in (lower_batch, _rows_one_by_one):
                assert _draft_case(case, lower_all) == frozen_draft[case]
        head = frozen_draft["matmul128-seed2-30"]["devices"]["a100"]["head"]
        assert head["score"] != head["score_no_compute"]
        assert head["score"] != head["score_no_memory"]


def _assert_same_arrays(got: CandidateBatch, want: CandidateBatch) -> None:
    """Every per-row array equal, dtype included, and the dataflow blocks
    as ``batch.blocks`` reads them, however a batch keeps them."""
    pairs = [
        (f.name, getattr(got, f.name), getattr(want, f.name))
        for f in fields(CandidateBatch)
        if isinstance(getattr(want, f.name), np.ndarray)
    ]
    pairs += [
        (f"blocks.{f.name}", getattr(got.blocks, f.name), getattr(want.blocks, f.name))
        for f in fields(type(want.blocks))
    ]
    for name, a, b in pairs:
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


ALL_CLASSES = [
    *WORKLOADS,
    *(pytest.param(wl, tc, id=case) for case, (wl, tc, *_) in _EXTRA_CASES.items()),
]


class TestRowsAreIndependent:
    """Reference-free properties of the one pipeline."""

    @pytest.mark.parametrize("wl,tc", ALL_CLASSES)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40))
    @settings(max_examples=12, deadline=None)
    def test_unpack_then_pack_is_identity(self, wl, tc, seed, n):
        """``program(i)`` keeps its row: concatenated, the rows are the batch."""
        space, configs = _space_and_configs(wl, tc, n, seed, splitk=True)
        batch = lower_batch(space, configs)
        progs = [batch.program(i) for i in range(len(batch))]
        assert [p.config for p in progs] == configs
        assert all(p.workload is space.workload for p in progs)
        assert all(len(p.row) == 1 for p in progs)
        _assert_same_arrays(CandidateBatch.concat([p.row for p in progs]), batch)

    @pytest.mark.parametrize("wl,tc", ALL_CLASSES)
    def test_rows_do_not_depend_on_their_neighbours(self, wl, tc):
        """One at a time, in two halves or permuted: the same rows."""
        space, configs = _space_and_configs(wl, tc, n=40, splitk=True)
        cb = ConfigBatch.from_configs(space, configs)
        analyzer = SymbolBasedAnalyzer(get_device("t4"))
        whole = lower_batch(space, cb)
        scores = analyzer.score_batch(whole)
        rows = np.arange(len(cb))
        for parts in (
            [rows[: len(cb) // 2], rows[len(cb) // 2 :]],
            [make_rng(5).permutation(len(cb))],
            [rows[i : i + 1] for i in rows],
        ):
            pieces = [lower_batch(space, cb.take(part)) for part in parts]
            order = np.concatenate(parts)
            _assert_same_arrays(CandidateBatch.concat(pieces), whole.take(order))
            np.testing.assert_array_equal(
                np.concatenate([analyzer.score_batch(piece) for piece in pieces]),
                scores[order],
            )


class TestBlocksOnDemand:
    """The dataflow blocks are built on first read from what the lowering
    kept: rows of a draft-lowered batch, taken and concatenated before any
    block was read, read the blocks a fresh lowering of those rows reads."""

    @pytest.mark.parametrize("wl,tc", ALL_CLASSES)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40))
    @settings(max_examples=8, deadline=None)
    def test_blocks_after_take_and_concat(self, wl, tc, seed, n):
        space, configs = _space_and_configs(wl, tc, n, seed, splitk=True)
        cb = ConfigBatch.from_configs(space, configs)
        drafted = lower_batch(space, cb)  # no block read, as in the draft
        read = lower_batch(space, cb)
        assert read.blocks is read.blocks  # read before its rows are taken
        pick = make_rng(seed).integers(0, len(cb), size=len(cb))
        half = len(cb) // 2
        every = np.arange(len(cb))
        for got, rows in (
            (drafted.take(pick), pick),
            (CandidateBatch.concat([drafted.take(pick[:half]), read.take(pick[half:])]), pick),
            (CandidateBatch.concat([drafted, drafted.take(every[::-1])]), [*every, *every[::-1]]),
        ):
            _assert_same_arrays(got, lower_batch(space, cb.take(rows)))


class TestScalarDoors:
    """Each one-program door the end-to-end benchmark still calls reads
    its program's own row of the batch."""

    @pytest.mark.parametrize("wl,tc", ALL_CLASSES)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12), device=st.sampled_from(DEVICES))
    @settings(max_examples=8, deadline=None)
    def test_door_of_program_i_is_row_i(self, wl, tc, seed, n, device):
        if tc and device == "k80":  # no TensorCore peak: both paths raise
            return
        space, configs = _space_and_configs(wl, tc, n, seed, splitk=True)
        batch = lower_batch(space, configs)
        dev = get_device(device)
        analyzer, sim = SymbolBasedAnalyzer(dev), GroundTruthSimulator(dev)
        pacm, mlp = PaCM(), TenSetMLP()
        doors = {
            "sim.latency": (sim.latency, sim.latency_batch(batch)),
            "PaCM.featurize": (lambda p: pacm.featurize([p])[0], pacm.featurize_batch(batch)),
            "TenSetMLP.featurize": (lambda p: mlp.featurize([p])[0], mlp.featurize_batch(batch)),
        }
        for i in range(len(batch)):
            prog = batch.program(i)
            for name, (door, rows) in doors.items():
                np.testing.assert_array_equal(door(prog), rows[i], err_msg=name)


class TestFeatureBatch:
    @pytest.mark.parametrize("wl,tc", WORKLOADS)
    def test_statement_rows_match(self, wl, tc):
        space, configs = _space_and_configs(wl, tc, n=30)
        batch = lower_batch(space, configs)
        rows = statement_matrix_batch(batch)
        for i, cfg in enumerate(configs):
            np.testing.assert_array_equal(
                rows[i], statement_matrix_batch(lower(space, cfg).row)[0]
            )

    @pytest.mark.parametrize("wl,tc", WORKLOADS)
    def test_dataflow_rows_match(self, wl, tc):
        space, configs = _space_and_configs(wl, tc, n=30)
        batch = lower_batch(space, configs)
        rows = dataflow_tensor_batch(batch)
        for i, cfg in enumerate(configs):
            np.testing.assert_array_equal(
                rows[i], dataflow_tensor_batch(lower(space, cfg).row)[0]
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


class TestCostModelBatch:
    @pytest.mark.parametrize(
        "model_factory",
        [TenSetMLP, PaCM, TLPModel, GBDTModel],
        ids=["mlp", "pacm", "tlp", "gbdt"],
    )
    def test_predict_batch_matches_predict(self, model_factory, matmul_space, a100):
        """``lower_batch`` rows encode and score like the same programs
        lowered one by one, their one-row batches concatenated."""
        space = matmul_space
        configs = random_population(space, make_rng(7), 40)
        packed = CandidateBatch.concat([lower(space, c).row for c in configs])
        batch = lower_batch(space, configs)
        model = model_factory()
        features = model.featurize_batch(packed)
        np.testing.assert_array_equal(model.featurize_batch(batch), features)
        lat = 1e-3 * (1.0 + make_rng(8).random(len(configs)))
        model.fit(features, lat, ["t"] * len(configs), rng=make_rng(9))
        np.testing.assert_array_equal(model.predict_batch(batch), model.predict_batch(packed))

    def test_random_model_draw_counts_align(self, matmul_space):
        configs = random_population(matmul_space, make_rng(0), 10)
        batch = lower_batch(matmul_space, configs)
        packed = CandidateBatch.concat([lower(matmul_space, c).row for c in configs])
        a = RandomModel(seed=3).predict_batch(batch)
        b = RandomModel(seed=3).predict_batch(packed)
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
        """A log of one proposed round (latencies rise with the row), and
        that round's batch."""
        records = RecordLog()
        batch = policy.propose_batch(records, rng)
        records.add(task.key, batch, 1e-3 * np.arange(1, len(batch) + 1), 0.0, 0)
        return records, batch

    @pytest.mark.parametrize("device", ["a100", "orin"])
    def test_pruner_proposals_match_scalar_mirror(self, device):
        """Same drafted set -> same predictions -> same measured batch.

        The mirror repeats the verify stage with the *scalar* entry
        points (per-program lower, scoring the packed programs, select by
        ``ScheduleConfig.key``, where the policy selects by row bytes)
        on an identical RNG stream; proposals and clock charges must
        agree exactly.
        """
        search = SearchConfig(population=32, ga_steps=2, spec_size=24, measure_per_round=6)
        task = self._task(device)
        model = GBDTModel()
        clock = SimClock()
        policy = PrunerPolicy(task, model, search=search, clock=clock)
        records, logged = self._seed_records(task, policy, make_rng(0))
        model.fit(model.featurize_batch(logged), *records.training_data(), rng=make_rng(1))
        logged_keys = {logged.program(i).config.key for i in range(len(logged))}

        # --- batched proposal ---
        exploration_before = clock.elapsed("exploration")
        batched = _propose(policy, records, make_rng(2))
        batched_charge = clock.elapsed("exploration") - exploration_before

        # --- scalar mirror on an identical RNG stream ---
        rng = make_rng(2)
        # the log's five best: its first five rows, latencies rise with the row
        seeds = [logged.program(i).config for i in range(min(5, len(logged)))]
        result = policy.explorer.explore(
            task.space, rng, seeds=ConfigBatch.from_configs(task.space, seeds)
        )
        mirror_clock = SimClock()
        mirror_clock.charge_sa(result.n_evals)
        draft_configs = result.spec.configs()
        n_random = int(round(search.random_fraction * search.spec_size))
        draft_configs += random_population(task.space, rng, n_random)
        progs = [lower(task.space, c) for c in draft_configs]
        progs = [p for p in progs if is_launchable(p, task.device)]
        mirror_clock.charge_inference(model.feature_kind, model.kind, len(progs))
        scores = model.predict_batch(CandidateBatch.concat([p.row for p in progs]))

        k = search.measure_per_round
        n_rand = max(0, int(round(k * search.eps_greedy))) or 1
        order = np.argsort(-np.asarray(scores))
        picked, seen = [], set()
        for i in order:
            key = progs[int(i)].config.key
            if key in seen or key in logged_keys:
                continue
            seen.add(key)
            picked.append(progs[int(i)])
            if len(picked) >= k - n_rand:
                break
        pool = [
            p
            for p in progs
            if p.config.key not in seen and p.config.key not in logged_keys
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
            policy = PrunerPolicy(
                task, RandomModel(seed=1), search=search, clock=random_model_clock()
            )
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
        policy = PrunerPolicy(task, RandomModel(), search=search, clock=random_model_clock())
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
        policy = PrunerPolicy(task, RandomModel(), search=search, clock=random_model_clock())
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
        policy = PrunerPolicy(task, RandomModel(), search=search, clock=random_model_clock())
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
        policy = PrunerPolicy(task, RandomModel(), search=search, clock=random_model_clock())
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
        policy = PrunerPolicy(task, RandomModel(), search=search, clock=random_model_clock())
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
        """``clear_caches`` empties the LRU memos sampling and lowering fill, the
        names the end-to-end benchmark reads stay registered, and the
        pipeline works after a full drop."""
        from repro.cache import cache_stats, clear_caches, registered_caches
        from repro.schedule.batch import space_plan
        from repro.schedule.space import divisors

        configs = random_population(matmul_space, make_rng(30), 8)
        statement_matrix_batch(lower_batch(matmul_space, configs))
        assert space_plan.cache_info().currsize > 0
        assert divisors.cache_info().currsize > 0
        pinned = {"schedule.memo.LOWERED_ROWS", "features.cache.FEATURE_ROWS"}
        assert pinned <= set(registered_caches())
        cleared = clear_caches()
        assert cleared >= 8
        assert space_plan.cache_info().currsize == 0
        assert divisors.cache_info().currsize == 0
        assert pinned <= set(cache_stats())
        # pipeline still works after a full cache drop
        scores = SymbolBasedAnalyzer(get_device("a100")).score_batch(
            lower_batch(matmul_space, configs)
        )
        assert np.isfinite(scores).any() or (scores == -math.inf).all()


if __name__ == "__main__":
    # Rewrites the frozen files from today's batch pipeline: only for a
    # deliberate change of the lowering or the draft formula.
    for name, golden in (("lowering", lowering_golden), ("draft", draft_golden)):
        text = json.dumps(golden(lower_batch), sort_keys=True, separators=(",", ":"))
        (FIXTURES / f"{name}_golden.json").write_text(text + "\n")
