"""The GA operators against rows frozen from the code they replaced.

``fixtures/ga_golden.json`` was written by :func:`ga_golden` on the last
commit whose ``sample_factorizations`` / ``mutate_batch`` grouped rows
with ``np.unique`` and a mask per value.  Each case threads one
generator through ``sample_factorizations``, ``random_batch``,
``mutate_batch``, ``crossover_pairs`` and
``LatentScheduleExplorer.explore`` and records, after every call, the
exact rows returned and the generator's next ``rng.integers(2**63)`` —
the stream position, so an operator that returned the same rows from
one draw more or fewer still fails.  The first ``GOLDEN_ROWS`` rows are
stored in full, everything as one SHA-256 over the packed matrix.

The ``policy/`` cases were appended by the last commit on which
``AnsorPolicy`` and ``LatentScheduleExplorer`` each carried their own
copy of the GA (seeding, generation step, best-first pool), before
:mod:`repro.schedule.evolve` replaced both: they pin what
``AnsorPolicy.propose_batch`` and ``PrunerPolicy.propose_batch`` pick,
cold and from a warm log, and the simulated exploration charge.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.config import SearchConfig
from repro.core.analyzer import SymbolBasedAnalyzer
from repro.core.lse import LatentScheduleExplorer
from repro.costmodel.base import CostModel
from repro.hardware.device import get_device
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch
from repro.schedule.batch import CandidateBatch, ConfigBatch, lower_batch
from repro.schedule.mutate import crossover_pairs, mutate_batch
from repro.schedule.sampler import random_batch, sample_factorizations
from repro.search.policy import AnsorPolicy
from repro.search.pruner_policy import PrunerPolicy
from repro.search.records import RecordLog, TuningRecord
from repro.search.task import TuningTask
from repro.timemodel import SimClock

FIXTURE = Path(__file__).parent / "fixtures" / "ga_golden.json"
GOLDEN_ROWS = 12

#: case id -> (workload, tensorcore, allow_splitk, n, seed)
CASES = {
    "matmul-n8-seed0": (ops.matmul(256, 256, 256), False, False, 8, 0),
    "matmul-splitk-n512-seed1": (ops.matmul(256, 256, 1024), False, True, 512, 1),
    "conv2d-n512-seed2": (ops.conv2d(1, 32, 28, 28, 64, 3), False, False, 512, 2),
    "tensorcore-n512-seed3": (ops.matmul(128, 128, 128, dtype="float16"), True, True, 512, 3),
    "tensorcore-n1-seed4": (ops.matmul(128, 128, 128, dtype="float16"), True, True, 1, 4),
    # flat spaces; the elementwise one holds 336 schedules, so 512 come back short
    "elementwise-n512-seed5": (ops.elementwise((64, 128), n_inputs=2), False, False, 512, 5),
    "pool-n8-seed6": (ops.pool2d(1, 32, 28, 28, 2, 2), False, False, 8, 6),
    "matmul-n0-seed7": (ops.matmul(256, 256, 256), False, False, 0, 7),
    "conv2d-n1-seed8": (ops.conv2d(1, 32, 28, 28, 64, 3), False, False, 1, 8),
}

#: case id -> (workload, tensorcore, allow_splitk, population, seed);
#: 16 and 64 sit either side of Ansor's ``population // 16`` seeding
#: split, and 512 leaves the 336-schedule space a short random batch
POLICY_CASES = {
    "policy/matmul-pop16-seed10": (ops.matmul(256, 256, 256), False, False, 16, 10),
    "policy/matmul-pop64-seed11": (ops.matmul(256, 256, 256), False, False, 64, 11),
    "policy/tensorcore-pop16-seed12": (ops.matmul(128, 128, 128, dtype="float16"), True, True, 16, 12),
    "policy/tensorcore-pop64-seed13": (ops.matmul(128, 128, 128, dtype="float16"), True, True, 64, 13),
    "policy/elementwise-pop16-seed14": (ops.elementwise((64, 128), n_inputs=2), False, False, 16, 14),
    "policy/elementwise-pop64-seed15": (ops.elementwise((64, 128), n_inputs=2), False, False, 64, 15),
    "policy/elementwise-pop512-seed16": (ops.elementwise((64, 128), n_inputs=2), False, False, 512, 16),
}
WARM_ROWS = 12  # Ansor seeds from the best 8, Pruner from the best 5


def _frozen(matrix: np.ndarray, rng: np.random.Generator) -> dict:
    """Head rows, digest of all rows, and where the generator stands."""
    matrix = np.ascontiguousarray(matrix)
    assert matrix.dtype in (np.int64, np.float64), matrix.dtype
    head = matrix[:GOLDEN_ROWS].tolist()
    if matrix.dtype == np.float64:
        head = [[x.hex() for x in row] for row in head]
    return {
        "shape": list(matrix.shape),
        "head": head,
        "sha256": hashlib.sha256(matrix.tobytes()).hexdigest(),
        "next_draw": int(rng.integers(2**63)),
    }


def _rows(batch: ConfigBatch) -> np.ndarray:
    """A ConfigBatch as one ``(N, n_axes * MAX_PARTS + 3)`` int64 matrix."""
    n = len(batch)
    return np.concatenate(
        [
            batch.factors.reshape(n, math.prod(batch.factors.shape[1:])),
            batch.unroll[:, None],
            batch.vector[:, None],
            batch.splitk[:, None],
        ],
        axis=1,
    )


def ga_case(case: str) -> dict:
    wl, tensorcore, splitk, n, seed = CASES[case]
    space = generate_sketch(wl, tensorcore=tensorcore, allow_splitk=splitk)
    rng = make_rng(seed)
    out = {}
    first = space.splits[0]
    for name, extent, parts in (
        ("first_axis", first.extent, first.parts),
        ("3136x5", 3136, 5),
        ("prime", 7, 3),
        ("one_part", 96, 1),
    ):
        out[f"sample_factorizations.{name}"] = _frozen(
            sample_factorizations(rng, extent, parts, n), rng
        )
    population = random_batch(space, rng, n)
    out["random_batch"] = _frozen(_rows(population), rng)
    mutated = population
    for step in range(3):  # repeated, so swaps and moves meet mutated rows
        mutated = mutate_batch(mutated, space, rng)
        out[f"mutate_batch.{step}"] = _frozen(_rows(mutated), rng)
    pairs = 0 if not len(population) else max(n, 4)
    left = rng.integers(0, max(1, len(population)), size=pairs)
    right = rng.integers(0, max(1, len(population)), size=pairs)
    children = crossover_pairs(population, left, right, space, rng)
    out["crossover_pairs"] = _frozen(_rows(children), rng)

    search = SearchConfig(population=max(8, min(n, 96)), ga_steps=3, spec_size=48)
    explorer = LatentScheduleExplorer(SymbolBasedAnalyzer(get_device("a100")), search)
    seeds = [population.config(i) for i in range(min(5, len(population)))]
    result = explorer.explore(space, rng, seeds=seeds)
    out["explore.n_evals"] = result.n_evals
    out["explore.scores"] = _frozen(result.scores[:, None], rng)
    out["explore.spec"] = _frozen(_rows(result.spec), rng)
    return out


class RowHashModel(CostModel):
    """Scores a row by an exact integer hash of it: no BLAS, no ties to
    speak of, so what the policies pick is the same on every machine."""

    kind = "random"  # the clock's cheapest entry; nothing is learned
    feature_kind = "statement"
    WEIGHTS = np.array([2654435761, 40503, 2246822519, 3266489917, 668265263], dtype=np.int64)

    def predict_batch(self, batch: CandidateBatch) -> np.ndarray:
        rows = _rows(batch.configs)
        weights = np.resize(self.WEIGHTS, rows.shape[1]) + np.arange(rows.shape[1])
        return ((rows * weights).sum(axis=1) % 999_999_999_989).astype(np.float64)

    def predict(self, progs):
        raise NotImplementedError

    def fit(self, progs, latencies, group_keys, train=None, rng=None):
        raise NotImplementedError


def policy_case(case: str) -> dict:
    wl, tensorcore, splitk, population, seed = POLICY_CASES[case]
    task = TuningTask.create(
        wl, get_device("a100"), tensorcore=tensorcore, allow_splitk=splitk
    )
    search = SearchConfig(population=population, ga_steps=3, spec_size=48)
    warm = RecordLog()
    measured = lower_batch(task.space, random_batch(task.space, make_rng(seed + 100), WARM_ROWS))
    assert len(measured) == WARM_ROWS
    for i in range(WARM_ROWS):
        warm.add(TuningRecord(task.key, measured.program(i), 1e-3 * (i + 1), 0.0, 0))
    out = {}
    for name, policy_cls in (("ansor", AnsorPolicy), ("pruner", PrunerPolicy)):
        for state, records in (("cold", RecordLog()), ("warm", warm)):
            rng, clock = make_rng(seed), SimClock()
            policy = policy_cls(task, RowHashModel(), search=search, clock=clock)
            picked = policy.propose_batch(records, rng)
            assert picked is not None and len(picked)
            out[f"{name}.{state}.picked"] = _frozen(_rows(picked.configs), rng)
            out[f"{name}.{state}.sim_s"] = clock.total.hex()
    return out


def ga_golden() -> dict:
    """What ``fixtures/ga_golden.json`` holds (module docstring)."""
    return {
        **{case: ga_case(case) for case in CASES},
        **{case: policy_case(case) for case in POLICY_CASES},
    }


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", list(CASES))
def test_operators_reproduce_the_frozen_rows_and_stream(case, frozen):
    got = ga_case(case)
    assert list(got) == list(frozen[case])  # insertion order == call order
    for call, want in frozen[case].items():
        assert got[call] == want, call


@pytest.mark.parametrize("case", list(POLICY_CASES))
def test_policies_pick_the_frozen_rows(case, frozen):
    got = policy_case(case)
    assert list(got) == list(frozen[case])
    for call, want in frozen[case].items():
        assert got[call] == want, call


def test_frozen_file_has_no_other_cases(frozen):
    assert list(frozen) == [*CASES, *POLICY_CASES]


def test_cases_cover_what_they_claim(frozen):
    """n in {0, 1, 8, 512}, a short population, an empty factor matrix."""
    sizes = {case: frozen[case]["random_batch"]["shape"][0] for case in CASES}
    assert {0, 1, 8, 512} <= set(sizes.values())
    assert sizes["elementwise-n512-seed5"] == 336
    assert frozen["matmul-n0-seed7"]["sample_factorizations.3136x5"]["shape"] == [0, 5]


if __name__ == "__main__":
    # Rewrites the frozen file from today's operators: only for a
    # deliberate change of what the operators draw.
    FIXTURE.write_text(json.dumps(ga_golden(), separators=(",", ":")) + "\n")
