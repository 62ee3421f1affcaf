"""The paper's corpus, Top-k and baseline numbers against a frozen file.

``fixtures/baselines_golden.json`` was written by :func:`baselines_golden`
on the last commit whose TenSet corpus, Roller, TLM, library search and
measurement lowered one config at a time and packed the programs back
into a batch.  It holds, floats as ``float.hex``:

* ``corpus`` — a TenSet-style corpus of two tiled subgraphs on the
  simulated T4 and K80: a SHA-256 over every row's ``(task key, config
  key)`` in corpus order, and every row's latency;
* ``topk`` — Top-1 / Top-5 (Eq. 2) of TenSetMLP, TLP and PaCM trained
  briefly on the T4 corpus and on one ``subsample`` of it;
* ``baselines`` — Roller, TLM and Felix on two bert_tiny subgraphs: the
  best end-to-end latency and ``clock.total``;
* ``library`` — :class:`~repro.hardware.library.LibrarySurrogate` kernel
  latency / ``used_splitk`` / ``used_winograd`` on three operators, one
  of them on TensorCores;
* ``sparsity`` — TLP's feature sparsity over one GEMM population.

No paper golden covers these numbers; this file shows they do not move.
``PYTHONPATH=src python tests/test_baselines_golden.py`` rewrites it —
only for a deliberate change of what they measure.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines import FelixTuner, RollerTuner, TLMTuner
from repro.config import TrainConfig
from repro.costmodel import PaCM, TenSetMLP, TLPModel
from repro.dataset import top_k_score
from repro.dataset.tenset import generate_for_tasks
from repro.features.primitives import sparsity
from repro.hardware.device import get_device
from repro.hardware.library import LibrarySurrogate
from repro.ir import ops
from repro.ir.partition import SubgraphTask
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower_batch
from repro.schedule.sampler import random_batch
from repro.workloads import network_tasks

FIXTURE = Path(__file__).parent / "fixtures" / "baselines_golden.json"
CORPUS_DEVICES = ("t4", "k80")
SCHEDULES = 60
TRAIN = TrainConfig(epochs=3)
MODELS = {"tensetmlp": TenSetMLP, "tlp": TLPModel, "pacm": PaCM}
BASELINE_DEVICE = "a100"


def _corpus_subgraphs():
    return [
        SubgraphTask(ops.matmul(128, 128, 128), 2),
        SubgraphTask(ops.conv2d(1, 16, 14, 14, 32, 3), 1),
    ]


def _corpus(device: str):
    return generate_for_tasks(get_device(device), _corpus_subgraphs(), SCHEDULES)


def _rows(dataset) -> tuple[list[str], list[float]]:
    """Every row's ``task#config`` key and latency, in corpus order."""
    keys, lats = [], []
    for task in dataset.tasks:
        keys += [f"{task.task_key}#{c.key}" for c in task.batch.configs.configs()]
        lats += task.latency.tolist()
    return keys, lats


def corpus_case(dataset) -> dict:
    keys, lats = _rows(dataset)
    return {
        "rows": hashlib.sha256("\n".join(keys).encode()).hexdigest(),
        "latency": [v.hex() for v in lats],
    }


def topk_case(dataset) -> dict:
    out = {}
    halves = {"full": dataset, "subsample": dataset.subsample(len(dataset) // 2, seed=0)}
    for part, train_set in halves.items():
        for name, factory in MODELS.items():
            model = factory(seed=0)
            model.fit(*train_set.training_data(model), train=TRAIN, rng=make_rng(0))
            out[f"{part}/{name}"] = [
                top_k_score(model, dataset, k=k).hex() for k in (1, 5)
            ]
    return out


def baselines_case() -> dict:
    device = get_device(BASELINE_DEVICE)
    subs = network_tasks("bert_tiny", top_k=2, tiled_only=True)
    roller = RollerTuner(device, trials=10, enumeration=256).tune_subgraphs(subs)
    tlm = TLMTuner(device, corpus_size=128, top_corpus=16)
    tlm.pretrain(subs)
    tlm_latency, tlm_clock = tlm.tune_subgraphs(subs, trials_per_task=20)
    felix = FelixTuner(device, restarts=2, descent_steps=5, measure_per_round=4).tune(
        subs, rounds=2
    )
    return {
        "roller": [roller.latency.hex(), roller.clock.total.hex()],
        "tlm": [tlm_latency.hex(), tlm_clock.total.hex()],
        "felix": [felix.final_latency.hex(), felix.clock.total.hex()],
    }


def library_case() -> dict:
    lib = LibrarySurrogate(get_device(BASELINE_DEVICE))
    cases = {
        "matmul_long_k": (ops.matmul(64, 64, 2048), False),
        "conv3x3": (ops.conv2d(1, 32, 28, 28, 64, 3), False),
        "matmul_tc": (ops.matmul(512, 512, 512, dtype="float16"), True),
    }
    out = {}
    for name, (workload, tensorcore) in cases.items():
        kernel = lib.kernel(workload, tensorcore=tensorcore)
        out[name] = [kernel.latency.hex(), kernel.used_splitk, kernel.used_winograd]
    return out


def sparsity_case() -> str:
    space = generate_sketch(ops.matmul(256, 256, 256))
    batch = lower_batch(space, random_batch(space, make_rng(0), 64))
    return sparsity(batch).hex()


def baselines_golden() -> dict:
    """What ``fixtures/baselines_golden.json`` holds (module docstring)."""
    corpora = {device: _corpus(device) for device in CORPUS_DEVICES}
    return {
        "corpus": {device: corpus_case(ds) for device, ds in corpora.items()},
        "topk": topk_case(corpora["t4"]),
        "baselines": baselines_case(),
        "library": library_case(),
        "sparsity": sparsity_case(),
    }


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def t4_corpus():
    return _corpus("t4")


@pytest.mark.parametrize("device", CORPUS_DEVICES)
def test_corpus_reproduces_frozen_rows(device, t4_corpus, frozen):
    dataset = t4_corpus if device == "t4" else _corpus(device)
    assert corpus_case(dataset) == frozen["corpus"][device]


def test_topk_reproduces_frozen_scores(t4_corpus, frozen):
    assert topk_case(t4_corpus) == frozen["topk"]


def test_baselines_reproduce_frozen_latency_and_clock(frozen):
    assert baselines_case() == frozen["baselines"]


def test_library_reproduces_frozen_kernels(frozen):
    assert library_case() == frozen["library"]


def test_sparsity_reproduces_frozen_value(frozen):
    assert sparsity_case() == frozen["sparsity"]


def test_frozen_file_has_no_other_cases(frozen):
    assert list(frozen) == ["corpus", "topk", "baselines", "library", "sparsity"]


if __name__ == "__main__":
    # Rewrites the frozen file from today's code: only for a deliberate
    # change of what these numbers measure.
    FIXTURE.write_text(json.dumps(baselines_golden(), separators=(",", ":")) + "\n")
