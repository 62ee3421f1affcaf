"""Whole tuning runs against results frozen from the code they pin.

``fixtures/tuner_golden.json`` was written by :func:`tuner_golden` on
the last commit whose cost models took a program list in ``fit`` and
re-encoded the whole record log every round.  Each case tunes the top
three ResNet-50 subgraphs on the simulated A100 for eight rounds at
``lite`` scale and stores the final latency, the simulated clock, and
every record's config key and latency in log order, floats as
``float.hex``.  One more case is a two-job warm start: two
:class:`~repro.serve.engine.JobEngine` jobs over one cache directory,
the second seeded from the first job's records and model checkpoint, so
it pins the runner's warm-start path too.  Its records are the record
store's rows in file order after each job.

Together the cases cover a fit inside a tuning loop for PaCM (online,
MoA, fine-tune and both ablations) and for the boosted trees (Ansor).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import api
from repro.costmodel import PaCM
from repro.serve import JobEngine, drain
from repro.serve.protocol import unwire_float
from repro.workloads import network_tasks

FIXTURE = Path(__file__).parent / "fixtures" / "tuner_golden.json"
DEVICE = "a100"
ROUNDS = 8
SEED = 3
METHODS = ("pruner", "ansor", "moa-pruner", "pruner-finetune", "pruner-no-lse", "pruner-no-sf")
#: (rounds, seed) of the two jobs that share one cache directory
WARM_JOBS = ((4, 0), (8, 1))


def _subgraphs():
    return network_tasks("resnet50", top_k=3)


def _pretrained(subs):
    return api.pretrain_model(PaCM(), subs, DEVICE, samples_per_task=20)


def _frozen(result) -> dict:
    return {
        "final_latency": result.final_latency.hex(),
        "sim_s": result.clock.total.hex(),
        "records": [
            [row["config_key"], float(row["latency"]).hex()]
            for row in result.records.rows()
        ],
    }


def method_case(method: str, subs, pretrained) -> dict:
    kwargs = {"pretrained": pretrained} if method in api.PRETRAINED_METHODS else {}
    result = api.tune_subgraphs(
        method, subs, DEVICE, rounds=ROUNDS, scale="lite", seed=SEED, **kwargs
    )
    return _frozen(result)


def warm_case(cache_dir) -> dict:
    engine = JobEngine(cache_dir)
    out = {}
    for i, (rounds, seed) in enumerate(WARM_JOBS):
        job_id = engine.submit(
            "resnet50", method="pruner", rounds=rounds, scale="lite", seed=seed,
            top_k_tasks=3,
        )
        drain(engine)
        result = engine.result(job_id)
        (key,) = engine.store.keys()
        out[f"job{i}"] = {
            "final_latency": unwire_float(result["final_latency"]).hex(),
            "sim_s": result["curve"][-1]["sim_time"].hex(),
            "records": [
                [row["config_key"], float(row["latency"]).hex()]
                for row in engine.store.load_rows(key)
            ],
            "seeded_trials": result["seeded_trials"],
            "warm_model": result["warm_model"],
        }
    return out


def tuner_golden(cache_dir) -> dict:
    """What ``fixtures/tuner_golden.json`` holds (module docstring)."""
    subs = _subgraphs()
    pretrained = _pretrained(subs)
    out = {m: method_case(m, subs, pretrained) for m in METHODS}
    out["pruner-warm"] = warm_case(cache_dir)
    return out


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def subs():
    return _subgraphs()


@pytest.fixture(scope="module")
def pretrained(subs):
    return _pretrained(subs)


@pytest.mark.parametrize("method", METHODS)
def test_tuning_run_reproduces_frozen_records(method, subs, pretrained, frozen):
    assert method_case(method, subs, pretrained) == frozen[method]


def test_warm_start_reproduces_frozen_records(tmp_path, frozen):
    got = warm_case(tmp_path)
    assert got == frozen["pruner-warm"]
    assert got["job1"]["seeded_trials"] > 0 and got["job1"]["warm_model"]


def test_frozen_file_has_no_other_cases(frozen):
    assert list(frozen) == [*METHODS, "pruner-warm"]


if __name__ == "__main__":
    # Rewrites the frozen file from today's tuner: only for a deliberate
    # change of what a tuning run measures.
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        text = json.dumps(tuner_golden(tmp), separators=(",", ":"))
    FIXTURE.write_text(text + "\n")
