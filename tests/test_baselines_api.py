"""Tests for baselines (Roller/Adatune/Felix/TLM/frameworks) and the API."""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.baselines import (
    AdatuneTuner,
    FelixTuner,
    RollerTuner,
    TLMTuner,
    framework_latency,
)
from repro.config import SearchConfig, TrainConfig
from repro.errors import SearchError, TuningFailure
from repro.hardware.device import get_device
from repro.ir import ops
from repro.ir.partition import SubgraphTask

SEARCH = SearchConfig(population=20, ga_steps=2, spec_size=12, measure_per_round=5)
TRAIN = TrainConfig(epochs=2)


@pytest.fixture(scope="module")
def subs():
    return [
        SubgraphTask(ops.matmul(256, 256, 256).with_fused("relu"), 2),
        SubgraphTask(ops.conv2d(1, 32, 28, 28, 64, 3), 1),
    ]


class TestRoller:
    def test_tunes_with_few_trials(self, subs):
        roller = RollerTuner(get_device("a100"), trials=10, enumeration=256)
        result = roller.tune_subgraphs(subs)
        assert math.isfinite(result.latency) and result.latency > 0
        assert len(result.per_task) == 2

    def test_cheaper_than_full_search(self, subs):
        roller = RollerTuner(get_device("a100"), trials=10, enumeration=256)
        result = roller.tune_subgraphs(subs)
        full = api.tune_subgraphs(
            "pruner", subs, "a100", rounds=10, search=SEARCH, train=TRAIN
        )
        assert result.clock.total < full.clock.total

    def test_same_latency_under_any_hash_seed(self):
        """The enumeration rng is seeded by a stable hash of (seed,
        workload key); ``str.__hash__`` is salted per process, so two
        interpreters must be asked, not two calls in this one."""
        script = (
            "from repro.baselines import RollerTuner\n"
            "from repro.hardware.device import get_device\n"
            "from repro.ir import ops\n"
            "from repro.ir.partition import SubgraphTask\n"
            "subs = [SubgraphTask(ops.matmul(256, 256, 256), 1)]\n"
            "roller = RollerTuner(get_device('a100'), trials=10, enumeration=256)\n"
            "print(repr(roller.tune_subgraphs(subs).latency))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        latencies = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            ).stdout
            for hash_seed in ("1", "2")
        ]
        assert latencies[0] == latencies[1]
        assert math.isfinite(float(latencies[0]))


class TestAdatune:
    def test_rejects_conv_transpose(self):
        dev = get_device("a100")
        bad = [SubgraphTask(ops.conv2d_transpose(1, 64, 8, 8, 32, 4), 1)]
        with pytest.raises(TuningFailure):
            AdatuneTuner(dev, search=SEARCH, train=TRAIN).tune(bad, 2)

    def test_tunes_supported(self, subs):
        result = AdatuneTuner(
            get_device("a100"), search=SEARCH, train=TRAIN
        ).tune(subs, 6)
        assert math.isfinite(result.final_latency)


class TestFelix:
    def test_supports_rules(self):
        assert FelixTuner.supports(ops.matmul(256, 256, 256))
        assert not FelixTuner.supports(ops.depthwise_conv2d(1, 32, 28, 28, 3))
        assert not FelixTuner.supports(ops.matmul(254, 256, 256))

    def test_tunes_regular_shapes(self, subs):
        felix = FelixTuner(get_device("a100"), restarts=3, descent_steps=6)
        result = felix.tune(subs, rounds=4)
        assert math.isfinite(result.final_latency)

    def test_seeded_descent_does_not_move(self, subs):
        """Values of the commit before each descent step's moves were
        costed as one batch (``lower`` + ``latency`` per move): same rng
        draws, same first-minimum tie rule, same stable sort of optima."""
        result = FelixTuner(get_device("a100"), restarts=3, descent_steps=6).tune(
            subs, rounds=4
        )
        assert result.final_latency.hex() == "0x1.fcd4a6d0f3334p-16"
        assert len(result.records) == 12
        assert result.clock.total.hex() == "0x1.9379fa97e132bp+3"

    def test_raises_on_unsupported(self):
        felix = FelixTuner(get_device("a100"))
        bad = [SubgraphTask(ops.depthwise_conv2d(1, 32, 28, 28, 3), 1)]
        with pytest.raises(TuningFailure):
            felix.tune(bad, rounds=1)


class TestTLM:
    def test_fails_on_unseen(self, subs):
        tlm = TLMTuner(get_device("a100"), corpus_size=64, top_corpus=16)
        tlm.pretrain(subs)
        with pytest.raises(TuningFailure):
            tlm.tune_workload(ops.matmul(96, 96, 96))

    def test_seen_subgraphs_tune_well(self, subs):
        dev = get_device("a100")
        tlm = TLMTuner(dev, corpus_size=256, top_corpus=32)
        tlm.pretrain(subs)
        latency, clock = tlm.tune_subgraphs(subs, trials_per_task=15)
        assert math.isfinite(latency)
        assert clock.total > 0


class TestFrameworks:
    def test_all_frameworks_return_latency(self, subs):
        dev = get_device("a100")
        lats = {f: framework_latency(f, subs, dev) for f in ("pytorch", "triton", "tensorrt")}
        assert all(math.isfinite(v) and v > 0 for v in lats.values())

    def test_tensorrt_fastest_of_frameworks(self, subs):
        """Fusion + libraries: TensorRT <= PyTorch eager (paper Fig. 9)."""
        dev = get_device("a100")
        assert framework_latency("tensorrt", subs, dev) <= framework_latency(
            "pytorch", subs, dev
        )

    def test_unknown_framework_raises(self, subs):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            framework_latency("onnxruntime", subs, get_device("a100"))


class TestApi:
    def test_tune_network_smoke(self):
        result = api.tune_network(
            "bert_tiny", method="pruner", rounds=4, scale="smoke", top_k_tasks=2
        )
        assert math.isfinite(result.final_latency)

    def test_offline_requires_pretrained(self, subs):
        with pytest.raises(SearchError):
            api.build_tuner("pruner-offline", subs, "a100")

    def test_moa_requires_pretrained(self, subs):
        with pytest.raises(SearchError):
            api.build_tuner("moa-pruner", subs, "a100")

    def test_pretrain_roundtrip(self, subs):
        from repro.costmodel import PaCM

        params = api.pretrain_model(
            PaCM(), subs, "k80", samples_per_task=40, train=TRAIN
        )
        tuner = api.build_tuner(
            "moa-pruner", subs, "a100", search=SEARCH, train=TRAIN, pretrained=params
        )
        result = tuner.tune(4)
        assert math.isfinite(result.final_latency)

    def test_all_methods_buildable(self, subs):
        from repro.costmodel import PaCM, TenSetMLP, TLPModel

        pacm = api.pretrain_model(PaCM(), subs, "a100", samples_per_task=30, train=TRAIN)
        mlp = api.pretrain_model(TenSetMLP(), subs, "a100", samples_per_task=30, train=TRAIN)
        tlp = api.pretrain_model(TLPModel(), subs, "a100", samples_per_task=30, train=TRAIN)
        pretrained = {
            "tensetmlp": mlp,
            "tlp": tlp,
            "pruner-offline": pacm,
            "pruner-offline-no-lse": pacm,
            "pruner-finetune": pacm,
            "moa-pruner": pacm,
        }
        for method in (
            "ansor", "pruner", "moa-pruner", "tensetmlp", "tlp",
            "pruner-offline", "pruner-finetune", "pruner-no-lse",
            "pruner-no-sf", "pruner-no-tdf", "pruner-offline-no-lse",
        ):
            tuner = api.build_tuner(
                method, subs, "a100", search=SEARCH, train=TRAIN,
                pretrained=pretrained.get(method),
            )
            result = tuner.tune(2)
            assert result.total_trials > 0, method

    def test_pretraining_set_and_parameters_do_not_move(self, subs):
        """``pretrain_model`` draws one config per sample and then lowers
        and simulates a task's samples as one batch: the training set is
        the one the per-sample loop built (digest of the commit before),
        and so are the parameters fitted on it (to BLAS rounding)."""
        from repro.costmodel import TenSetMLP

        model, seen = TenSetMLP(), {"progs": []}
        featurize, fit = model.featurize_batch, model.fit
        model.featurize_batch = lambda batch: (
            seen["progs"].extend(map(batch.program, range(len(batch)))) or featurize(batch)
        )
        model.fit = lambda features, lats, keys, **kw: (
            seen.update(lats=lats, keys=keys) or fit(features, lats, keys, **kw)
        )
        params = api.pretrain_model(
            model, subs, "t4", samples_per_task=25, train=TRAIN, seed=0
        )
        text = "\n".join(f"{k}#{p.config.key}" for k, p in zip(seen["keys"], seen["progs"]))
        digest = hashlib.sha256(text.encode() + seen["lats"].tobytes()).hexdigest()
        assert digest == "f742e819168cc2640211f394e74d292dfc5be39cfd3673918eebf347929a87ad"
        sums = {
            "_norm.mu": "0x1.ecfb696be387ap+3",
            "_norm.sigma": "0x1.1d5dd10ee69b8p+4",
            "layers.0.bias": "0x1.858b33e2b1b00p-12",
            "layers.0.weight": "-0x1.3feb34a77f032p+4",
            "layers.2.bias": "-0x1.564c568f7afe1p-5",
            "layers.2.weight": "-0x1.0a7030208cbf3p+3",
            "layers.4.bias": "0x1.7073100e18cd1p-37",
            "layers.4.weight": "0x1.248f3b21eb1f4p-1",
        }
        assert params.keys() == sums.keys()
        for name, total in sums.items():
            assert abs(float(params[name].sum()) - float.fromhex(total)) < 1e-9, name

    def test_elementwise_latency_does_not_move(self):
        """resnet50 has two flat subgraphs; value of the commit before the
        eight draws a subgraph were lowered and simulated as one batch."""
        from repro.workloads import network_tasks

        subs = network_tasks("resnet50")
        assert sum(not s.workload.is_tiled for s in subs) == 2
        latency = api.elementwise_latency(subs, get_device("a100"))
        assert latency.hex() == "0x1.478c569886277p-17"

    def test_elementwise_latency_positive(self):
        subs = [SubgraphTask(ops.elementwise((1024, 1024)), 3)]
        assert api.elementwise_latency(subs, get_device("a100")) > 0

    def test_tensorcore_method(self):
        subs = [SubgraphTask(ops.matmul(128, 256, 256, dtype="float16"), 1)]
        result = api.tune_subgraphs(
            "pruner-tc", subs, "a100", rounds=3, search=SEARCH, train=TRAIN
        )
        assert math.isfinite(result.final_latency)
