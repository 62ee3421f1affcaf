"""Candidate identity on the draft→verify handoff.

The hot path identifies a candidate by the raw bytes of its config row
(``ConfigBatch.row_keys``); ``ScheduleConfig.key`` strings exist only on
the rows that become records.  This suite pins three things:

* **goldens** — the ranked LSE draft and the rows each policy picks
  (cold start, warm, and with the top predictions already measured
  through ``seed_from``) equal ``fixtures/handoff_golden.json``, which
  was captured by running :func:`golden_rounds` on the commit *before*
  the handoff moved to arrays (config objects + key strings end to
  end).  The file is data, not a mirror of today's code.
* **identity** — ``row_keys`` is a bijection with ``ScheduleConfig.key``
  inside a space, and ``take`` / ``concat`` / ``slice`` (including the
  sharded lowering path) keep configs that were already materialised.
* **materialisation budget** — a paper-scale round builds config
  objects only for the rows it hands to measurement.
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
from repro.schedule.batch import ConfigBatch, lower_batch
from repro.schedule.sampler import random_batch
from repro.schedule.space import ScheduleConfig
from repro.search import AnsorPolicy, PrunerPolicy, RecordLog, TuningRecord
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


def _records_for(task, batch, round_index: int) -> list[TuningRecord]:
    return [
        TuningRecord(
            task.key, batch.program(i), 1e-3 * (i + 1 + round_index), 0.0, round_index
        )
        for i in range(len(batch))
    ]


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
        records = RecordLog()
        records.extend(_records_for(task, cold, 0))
        model.fit(*records.training_data(), rng=make_rng(1))
        # warm: seeds from the log, learned model ranks the drafted set
        warm = policy.propose_batch(records, make_rng(2))
        # same draw, but the warm picks arrive as persisted records in a
        # log this policy has never seen: selection must walk past them
        reseeded = RecordLog()
        reseeded.seed_from(records.records + _records_for(task, warm, 1))
        skipped = policy.propose_batch(reseeded, make_rng(2))
        out[name] = {
            "cold": _picked_keys(cold),
            "warm": _picked_keys(warm),
            "top_measured": _picked_keys(skipped),
        }
        if name == "pruner":
            seeds = [p.config for p in records.best_configs(task.key, k=5)]
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
        """Equal bytes in two spaces are still two cache entries."""
        from repro.features.cache import FEATURE_ROWS
        from repro.features.statement import statement_matrix_batch
        from repro.schedule.memo import LOWERED_ROWS, lower_batch_memo

        a = generate_sketch(ops.matmul(64, 64, 64))
        b = generate_sketch(ops.matmul(64, 64, 64, dtype="float16"))
        batch_a = random_batch(a, make_rng(2), 6)
        batch_b = ConfigBatch(b, batch_a.factors, batch_a.unroll, batch_a.vector, batch_a.splitk)
        assert batch_a.row_keys() == batch_b.row_keys()
        LOWERED_ROWS.clear()
        before = LOWERED_ROWS.stats()
        lower_batch_memo(a, batch_a)
        lower_batch_memo(b, batch_b)
        after = LOWERED_ROWS.stats()
        assert (after["hits"] - before["hits"], after["misses"] - before["misses"]) == (0, 12)
        FEATURE_ROWS.clear()
        statement_matrix_batch(lower_batch(a, batch_a))
        statement_matrix_batch(lower_batch(b, batch_b))
        assert len(FEATURE_ROWS) == 12


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
        records = _records_for(task, batch, 0)
        log = RecordLog()
        assert log.measured_rows(task.key, task.space) == set()
        log.extend(records[:3])
        assert log.measured_rows(task.key, task.space) == set(rows[:3])
        assert log.seed_from(records[2:6]) == 3  # one overlaps what is logged
        log.add(records[7])
        assert log.measured_rows(task.key, task.space) == set(rows[:6]) | {rows[7]}
        assert log.measured_rows("another-task", task.space) == set()
        assert log.trials(task.key) == 7 and log.trials("another-task") == 0
        assert log.already_measured(task.key, records[7].prog.config.key)
        assert not log.already_measured(task.key, records[8].prog.config.key)
        assert not log.already_measured("another-task", records[0].prog.config.key)

    def test_selection_skips_rows_of_whichever_log_it_is_handed(self):
        """One policy, two logs: membership comes from the log, not the policy."""
        task = self._task()
        search = SearchConfig(measure_per_round=3, eps_greedy=0.0)
        policy = PrunerPolicy(task, GBDTModel(), search=search)
        batch = policy._lower_valid_batch(random_batch(task.space, make_rng(3), 12))
        scores = -np.arange(len(batch), dtype=float)  # row 0 ranks first
        records = _records_for(task, batch, 0)
        first, second = RecordLog(), RecordLog()
        first.extend(records[:2])
        second.seed_from(records[1:4])
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
        records = RecordLog()
        records.extend(_records_for(task, policy.propose_batch(records, make_rng(0)), 0))
        model.fit(*records.training_data(), rng=make_rng(1))

        built = []
        from_map = ScheduleConfig.from_map
        monkeypatch.setattr(
            ScheduleConfig,
            "from_map",
            staticmethod(lambda *a, **kw: built.append(1) or from_map(*a, **kw)),
        )
        picked = policy.propose_batch(records, make_rng(2))
        assert len(picked) == search.measure_per_round
        _records_for(task, picked, 1)  # what Tuner.step materialises
        n_seeds = 8  # the most either policy seeds its GA with
        assert len(built) <= search.measure_per_round + n_seeds
