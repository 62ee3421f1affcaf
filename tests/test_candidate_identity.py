"""Candidate identity on the draft→verify handoff.

The hot path identifies a candidate by the raw bytes of its config row
(``ConfigBatch.row_keys``); ``ScheduleConfig.key`` strings exist only on
the rows that become records.  This suite pins three things:

* **goldens** — the ranked LSE draft and the rows each policy picks
  (cold start, warm, and with the top predictions already measured
  through ``seed_from``'s serialized rows) equal ``fixtures/handoff_golden.json``, which
  was captured by running :func:`golden_rounds` on the commit *before*
  the handoff moved to arrays (config objects + key strings end to
  end).  The file is data, not a mirror of today's code.
* **identity** — ``row_keys`` is a bijection with ``ScheduleConfig.key``
  inside a space, and ``take`` / ``concat`` / ``slice`` (including the
  sharded lowering path) keep configs that were already materialised.
* **materialisation budget** — a paper-scale round, logged, builds no
  config object at all.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SearchConfig
from repro.costmodel import GBDTModel
from repro.hardware.device import get_device
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch
from repro.schedule.batch import CandidateBatch, ConfigBatch, lower_batch
from repro.schedule.sampler import random_batch
from repro.schedule.space import ScheduleConfig
from repro.search import AnsorPolicy, PrunerPolicy, RecordLog
from repro.search.task import TuningTask

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "handoff_golden.json"
GOLDEN_DEVICES = ("a100", "orin", "k80")
GOLDEN_SEARCH = SearchConfig(population=48, ga_steps=3, spec_size=32, measure_per_round=6)
POLICIES = {"pruner": PrunerPolicy, "ansor": AnsorPolicy}


def _picked_keys(batch) -> list[str]:
    if batch is None:
        return []
    return [batch.program(i).config.key for i in range(len(batch))]


def _lse_rows(result) -> dict:
    return {
        "keys": [c.key for c in result.spec.configs()],
        "scores": [float(s) for s in result.scores],
    }


def _log(task, batch, round_index: int, log: RecordLog | None = None) -> RecordLog:
    """``log`` (or a new one) with ``batch`` measured at made-up latencies."""
    log = RecordLog() if log is None else log
    latency = 1e-3 * (np.arange(len(batch)) + 1 + round_index)
    log.add(task.key, batch, latency, 0.0, round_index)
    return log


def golden_rounds(device: str, lse_rows=_lse_rows) -> dict:
    """Every frozen scenario of one device, as JSON-ready config keys.

    ``lse_rows`` reads an ``LSEResult``; the capture on the parent commit
    passed one for its shape (a config list plus a ``{key: fitness}`` dict).
    """
    task = TuningTask.create(ops.matmul(256, 256, 256), get_device(device))
    out: dict = {}
    for name, policy_cls in POLICIES.items():
        model = GBDTModel()
        policy = policy_cls(task, model, search=GOLDEN_SEARCH)
        # cold start: empty log, no trained model
        cold = policy.propose_batch(RecordLog(), make_rng(0))
        records = _log(task, cold, 0)
        model.fit(model.featurize_batch(cold), *records.training_data(), rng=make_rng(1))
        # warm: seeds from the log, learned model ranks the drafted set
        warm = policy.propose_batch(records, make_rng(2))
        # same draw, but the warm picks arrive as persisted records in a
        # log this policy has never seen: selection must walk past them
        reseeded = RecordLog()
        reseeded.seed_from(
            records.rows() + _log(task, warm, 1).rows(), {task.key: task.space}
        )
        skipped = policy.propose_batch(reseeded, make_rng(2))
        out[name] = {
            "cold": _picked_keys(cold),
            "warm": _picked_keys(warm),
            "top_measured": _picked_keys(skipped),
        }
        if name == "pruner":
            seeds = records.best_configs(task.key, k=5)
            out["lse"] = lse_rows(policy.explorer.explore(task.space, make_rng(3)))
            out["lse_seeded"] = lse_rows(
                policy.explorer.explore(task.space, make_rng(4), seeds=seeds)
            )
    return out


class TestFrozenHandoff:
    @pytest.mark.parametrize("device", GOLDEN_DEVICES)
    def test_rounds_reproduce_frozen_golden(self, device):
        want = json.loads(GOLDEN_PATH.read_text())[device]
        got = golden_rounds(device)
        assert got.keys() == want.keys()
        for scenario in ("lse", "lse_seeded"):
            assert got[scenario]["keys"] == want[scenario]["keys"], scenario
            assert got[scenario]["scores"] == want[scenario]["scores"], scenario
        for policy in POLICIES:
            assert got[policy] == want[policy], policy

    @pytest.mark.parametrize("device", GOLDEN_DEVICES)
    def test_golden_rounds_exercise_the_skip(self, device):
        """The fixture means something: measured picks really are walked past."""
        want = json.loads(GOLDEN_PATH.read_text())[device]
        for policy in POLICIES:
            rounds = want[policy]
            assert rounds["cold"] and rounds["warm"] and rounds["top_measured"]
            assert not set(rounds["warm"]) & set(rounds["cold"])
            assert not set(rounds["top_measured"]) & set(rounds["warm"])
        assert len(want["lse"]["keys"]) == len(set(want["lse"]["keys"]))


# ----------------------------------------------------------------------
# identity
# ----------------------------------------------------------------------
_IDENTITY_WORKLOADS = (
    (ops.matmul(64, 96, 32), False),
    (ops.matmul(128, 128, 128, dtype="float16"), True),
    (ops.conv2d(1, 8, 14, 14, 16, 3), False),
    (ops.elementwise((32, 48), n_inputs=2), False),
    (ops.pool2d(1, 8, 14, 14, 2, 2), False),
)


def _identity_batch(which: int, seed: int, n: int) -> ConfigBatch:
    """A random batch of one of the spaces, with duplicates folded in."""
    wl, tc = _IDENTITY_WORKLOADS[which]
    space = generate_sketch(wl, tensorcore=tc, allow_splitk=tc)
    rng = make_rng(seed)
    batch = random_batch(space, rng, n)
    return batch.take(rng.integers(0, len(batch), size=len(batch) + 3))


class TestRowIdentity:
    @given(
        which=st.integers(0, len(_IDENTITY_WORKLOADS) - 1),
        seed=st.integers(0, 10_000),
        n=st.integers(1, 24),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_keys_biject_with_config_keys(self, which, seed, n):
        batch = _identity_batch(which, seed, n)
        rows = batch.row_keys()
        keys = [c.key for c in batch.configs()]
        assert len(rows) == len(keys) == len(batch)
        for i in range(len(batch)):
            for j in range(i, len(batch)):
                assert (rows[i] == rows[j]) == (keys[i] == keys[j])
        # the lowered batch answers with the same identities
        assert lower_batch(batch.space, batch).row_keys() == rows

    @given(
        which=st.integers(0, len(_IDENTITY_WORKLOADS) - 1),
        seed=st.integers(0, 10_000),
        n=st.integers(2, 24),
    )
    @settings(max_examples=40, deadline=None)
    def test_views_keep_materialised_configs(self, which, seed, n):
        batch = _identity_batch(which, seed, n)
        rng = make_rng(seed + 1)
        held = {int(i): batch.config(int(i)) for i in rng.integers(0, len(batch), size=3)}
        idx = rng.permutation(len(batch))
        taken = batch.take(idx)
        for at, i in enumerate(idx):
            if int(i) in held:
                assert taken.config(at) is held[int(i)]
        cut = len(batch) // 2
        left, right = batch.slice(0, cut), batch.slice(cut, len(batch))
        untouched = random_batch(batch.space, rng, 2)  # nothing materialised
        joined = ConfigBatch.concat([left, untouched, right])
        for i, cfg in held.items():
            assert joined.config(i if i < cut else i + len(untouched)) is cfg
        assert [c.key for c in joined.configs()] == (
            [c.key for c in left.configs()]
            + [c.key for c in untouched.configs()]
            + [c.key for c in right.configs()]
        )

    def test_untouched_batches_carry_no_config_list(self, matmul_space):
        """The GA's take / concat / slice build no per-row Python lists."""
        batch = random_batch(matmul_space, make_rng(0), 16)
        views = [
            batch.take(np.arange(4)),
            batch.slice(2, 9),
            ConfigBatch.concat([batch, batch]),
            lower_batch(matmul_space, batch).configs,
        ]
        assert all(v._configs is None for v in [batch, *views])

    def test_row_keys_never_cross_spaces(self):
        """Equal bytes in two spaces are still two candidates: they lower
        and encode to different rows, and the names the end-to-end
        benchmark reads stay registered, counting nothing."""
        from repro.cache import cache_stats, clear_caches
        from repro.features.statement import statement_matrix_batch
        from repro.schedule.memo import lower_batch_memo

        a = generate_sketch(ops.matmul(64, 64, 64))
        b = generate_sketch(ops.matmul(64, 64, 64, dtype="float16"))
        batch_a = random_batch(a, make_rng(2), 6)
        batch_b = ConfigBatch(b, batch_a.factors, batch_a.unroll, batch_a.vector, batch_a.splitk)
        assert batch_a.row_keys() == batch_b.row_keys()
        rows_a, rows_b = lower_batch_memo(a, batch_a), lower_batch_memo(b, batch_b)
        assert (rows_a.dtype_bytes != rows_b.dtype_bytes).all()
        features_a = statement_matrix_batch(rows_a)
        features_b = statement_matrix_batch(rows_b)
        assert (features_a != features_b).any(axis=1).all()
        clear_caches()
        for name in ("schedule.memo.LOWERED_ROWS", "features.cache.FEATURE_ROWS"):
            assert cache_stats()[name] == {"hits": 0, "misses": 0, "evictions": 0, "rows": 0}


def _unique_first_rows(batch: ConfigBatch) -> np.ndarray:
    """First occurrences by ``np.unique`` over the row bytes: the reference."""
    return np.sort(np.unique(batch.row_ids(), return_index=True)[1])


class TestFirstRows:
    """``first_rows`` groups by a row hash; it must be exactly the
    ``np.unique`` answer, collisions included."""

    @given(
        which=st.integers(0, len(_IDENTITY_WORKLOADS) - 1),
        seed=st.integers(0, 10_000),
        picks=st.lists(st.integers(0, 31), max_size=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_unique_over_planted_duplicates(self, which, seed, picks):
        wl, tc = _IDENTITY_WORKLOADS[which]
        space = generate_sketch(wl, tensorcore=tc, allow_splitk=tc)
        distinct = random_batch(space, make_rng(seed), 32)
        batch = distinct.take(np.array(picks, dtype=np.int64) % len(distinct))
        got = batch.first_rows()
        assert np.array_equal(got, _unique_first_rows(batch))
        assert got.dtype == np.intp

    def test_empty_batch(self, matmul_space):
        empty = random_batch(matmul_space, make_rng(0), 4).take(np.zeros(0, dtype=np.intp))
        got = empty.first_rows()
        assert got.dtype == np.intp and not len(got)
        assert np.array_equal(got, _unique_first_rows(empty))

    def test_forced_collision_falls_back_to_unique(self, matmul_space, monkeypatch):
        """Every row hashes to 0: one run holding unequal rows, which only
        the ``np.unique`` fallback (the one place ``row_ids`` is read)
        answers right.  A run of equal rows needs no fallback."""
        import repro.schedule.batch as batch_module

        distinct = random_batch(matmul_space, make_rng(3), 12)
        batch = distinct.take([0, 5, 0, 11, 5, 3, 3, 7])
        same = distinct.take([4, 4, 4])
        want = [_unique_first_rows(b) for b in (batch, same)]
        calls = []
        row_ids = ConfigBatch.row_ids
        monkeypatch.setattr(
            ConfigBatch, "row_ids", lambda self: calls.append(len(self)) or row_ids(self)
        )
        monkeypatch.setattr(
            batch_module, "_ROW_HASH_MULTIPLIERS", np.zeros(64, dtype=np.uint64)
        )
        assert np.array_equal(batch.first_rows(), want[0])
        assert calls == [len(batch)]
        assert np.array_equal(same.first_rows(), want[1])
        assert calls == [len(batch)]  # equal rows in a run: no fallback
        assert want[0].tolist() == [0, 1, 3, 5, 7] and want[1].tolist() == [0]


class TestEmptyTake:
    """``take([])`` selects no rows: ``np.asarray([])`` is float64 and used
    to fail as an index."""

    @pytest.mark.parametrize("empty", [[], np.array([], dtype=bool)], ids=["list", "bool"])
    def test_config_batch(self, matmul_space, empty):
        batch = random_batch(matmul_space, make_rng(0), 4)
        taken = batch.take(empty)
        assert len(taken) == 0
        assert taken.factors.shape == (0, *batch.factors.shape[1:])

    @pytest.mark.parametrize("empty", [[], np.array([], dtype=bool)], ids=["list", "bool"])
    def test_candidate_batch(self, matmul_space, empty):
        rows = lower_batch(matmul_space, random_batch(matmul_space, make_rng(0), 4))
        taken = rows.take(empty)
        assert len(taken) == 0 and len(taken.configs) == 0
        assert taken.blocks.kind.shape == (0, rows.blocks.kind.shape[1])

    def test_candidate_batch_from_programs(self, matmul_space):
        """Programs' rows packed back together take no rows just the same."""
        rows = lower_batch(matmul_space, random_batch(matmul_space, make_rng(0), 2))
        packed = CandidateBatch.concat([rows.program(0).row, rows.program(1).row])
        taken = packed.take([])
        assert len(taken) == 0 and taken.configs.configs() == []


# ----------------------------------------------------------------------
# measured-set membership
# ----------------------------------------------------------------------
class TestMeasuredRows:
    def _task(self):
        return TuningTask.create(ops.matmul(128, 128, 128), get_device("a100"))

    def test_measured_rows_follow_add_and_seed_from(self):
        task = self._task()
        batch = lower_batch(task.space, random_batch(task.space, make_rng(0), 9))
        rows = batch.row_keys()
        stored = _log(task, batch, 0).rows()
        log = RecordLog()
        assert log.measured_rows(task.key) == set()
        _log(task, batch.take(np.arange(3)), 0, log)
        assert log.measured_rows(task.key) == set(rows[:3])
        # one overlaps what is logged
        assert log.seed_from(stored[2:6], {task.key: task.space}) == 3
        _log(task, batch.take([7]), 0, log)
        assert log.measured_rows(task.key) == set(rows[:6]) | {rows[7]}
        assert log.measured_rows("another-task") == set()
        assert log.trials(task.key) == 7 and log.trials("another-task") == 0

    def test_selection_skips_rows_of_whichever_log_it_is_handed(self):
        """One policy, two logs: membership comes from the log, not the policy."""
        task = self._task()
        search = SearchConfig(measure_per_round=3, eps_greedy=0.0)
        policy = PrunerPolicy(task, GBDTModel(), search=search)
        batch = policy._lower_valid_batch(random_batch(task.space, make_rng(3), 12))
        scores = -np.arange(len(batch), dtype=float)  # row 0 ranks first
        first = _log(task, batch.take(np.arange(2)), 0)
        second = RecordLog()
        second.seed_from(_log(task, batch, 0).rows()[1:4], {task.key: task.space})
        keys = _picked_keys(batch)
        rounds = (
            (first, keys[2:5]),
            (second, [keys[0], keys[4], keys[5]]),
            (first, keys[2:5]),
        )
        for log, want in rounds:
            got = policy._select_top_batch(batch, scores, log, make_rng(0))
            assert _picked_keys(got) == want


# ----------------------------------------------------------------------
# materialisation budget
# ----------------------------------------------------------------------
class TestMaterialisationBudget:
    """Counts repeat exactly, so the gain is guarded without a stopwatch."""

    @pytest.mark.parametrize("policy_cls", [PrunerPolicy, AnsorPolicy], ids=["pruner", "ansor"])
    def test_a_round_builds_configs_only_for_what_it_measures(self, policy_cls, monkeypatch):
        search = SearchConfig()  # paper scale: 512 drafted, 10 measured
        task = TuningTask.create(ops.matmul(256, 256, 256), get_device("a100"))
        model = GBDTModel()
        policy = policy_cls(task, model, search=search)
        first = policy.propose_batch(RecordLog(), make_rng(0))
        records = _log(task, first, 0)
        model.fit(model.featurize_batch(first), *records.training_data(), rng=make_rng(1))

        built = []
        from_map = ScheduleConfig.from_map
        monkeypatch.setattr(
            ScheduleConfig,
            "from_map",
            staticmethod(lambda *a, **kw: built.append(1) or from_map(*a, **kw)),
        )
        picked = policy.propose_batch(records, make_rng(2))
        assert len(picked) == search.measure_per_round
        _log(task, picked, 1, records)  # what Tuner.step does with it
        assert built == []
