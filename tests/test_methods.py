"""Every tuning method name, pinned as what it builds.

A method (paper Sections 5-6, Table 12) is a choice of exploration
policy, cost model (with PaCM's two feature switches), cost-model mode,
TensorCore sketches and the device its pre-trained parameters come
from.  ``EXPECTED`` states that choice for all thirteen names on its
own, and the tests check what :func:`repro.api.build_tuner` and
:func:`repro.experiments.common.run_tuning` do with each name.  The
golden tuning runs pin the bits of six methods; this pins the wiring of
all of them.
"""

from __future__ import annotations

import io
import json
import re
import urllib.error
import urllib.request

import numpy as np
import pytest
from test_serve import Stack

from repro import api
from repro.costmodel import GBDTModel, PaCM, TenSetMLP, TLPModel
from repro.errors import SearchError
from repro.experiments import common
from repro.ir import ops
from repro.ir.partition import SubgraphTask
from repro.search import AnsorPolicy, PrunerPolicy
from repro.serve.cli import main as cli_main

TARGET = "a100"
#: (policy, model, PaCM (use_statement, use_dataflow), mode, TensorCores,
#: pre-training device: None when the mode trains online)
EXPECTED = {
    "ansor": (AnsorPolicy, GBDTModel, None, "online", False, None),
    "tensetmlp": (AnsorPolicy, TenSetMLP, None, "offline", False, TARGET),
    "tlp": (AnsorPolicy, TLPModel, None, "offline", False, TARGET),
    "pruner": (PrunerPolicy, PaCM, (True, True), "online", False, None),
    "moa-pruner": (PrunerPolicy, PaCM, (True, True), "moa", False, "k80"),
    "pruner-offline": (PrunerPolicy, PaCM, (True, True), "offline", False, TARGET),
    "pruner-offline-no-lse": (AnsorPolicy, PaCM, (True, True), "offline", False, TARGET),
    "pruner-finetune": (PrunerPolicy, PaCM, (True, True), "finetune", False, "k80"),
    "metaschedule": (AnsorPolicy, TenSetMLP, None, "online", True, None),
    "pruner-tc": (PrunerPolicy, PaCM, (True, True), "online", True, None),
    "pruner-no-lse": (AnsorPolicy, PaCM, (True, True), "online", False, None),
    "pruner-no-sf": (PrunerPolicy, PaCM, (False, True), "online", False, None),
    "pruner-no-tdf": (PrunerPolicy, PaCM, (True, False), "online", False, None),
}
SEED = 5
UNKNOWN = "prunr"


def _subgraphs():
    # one TensorCore-eligible matmul: its sketch shows the backend
    return [SubgraphTask(ops.matmul(128, 256, 256, dtype="float16"), 1)]


def _fresh_model(model_cls, switches, seed):
    if model_cls is GBDTModel:
        return GBDTModel()
    if switches is None:
        return model_cls(seed=seed)
    use_statement, use_dataflow = switches
    return model_cls(use_statement=use_statement, use_dataflow=use_dataflow, seed=seed)


def _same_params(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def test_the_table_names_every_known_method():
    assert set(EXPECTED) == api.KNOWN_METHODS
    pretrained = {m for m, row in EXPECTED.items() if row[3] != "online"}
    assert api.PRETRAINED_METHODS == pretrained
    for method, (_, model_cls, *_rest) in EXPECTED.items():
        assert api.model_kind(method) == model_cls.kind


@pytest.mark.parametrize("tensorcore", [False, True], ids=["cuda", "tc-arg"])
@pytest.mark.parametrize("method", sorted(EXPECTED))
def test_build_tuner_assembles_the_method(method, tensorcore):
    policy_cls, model_cls, switches, mode, tc, _ = EXPECTED[method]
    pretrained = None
    if mode != "online":
        pretrained = _fresh_model(model_cls, switches, seed=0).get_params()
    tuner = api.build_tuner(
        method, _subgraphs(), TARGET, pretrained=pretrained,
        tensorcore=tensorcore, seed=SEED,
    )
    assert {type(p) for p in tuner.policies.values()} == {policy_cls}
    assert type(tuner.model) is model_cls
    if switches is not None:
        assert (tuner.model.use_statement, tuner.model.use_dataflow) == switches
    assert tuner.mode == mode
    assert (tuner.adapter is not None) == (mode == "moa")
    # the row's TensorCore flag OR'd with the argument
    assert [t.space.tensorcore for t in tuner.tasks] == [tc or tensorcore]
    if pretrained is not None and mode != "moa":
        assert _same_params(tuner.model.get_params(), pretrained)
    elif model_cls is not GBDTModel:  # the boosted trees take no seed
        params = tuner.model.get_params()
        assert _same_params(params, _fresh_model(model_cls, switches, SEED).get_params())
        assert not _same_params(
            params, _fresh_model(model_cls, switches, SEED + 1).get_params()
        )


@pytest.mark.parametrize("method", sorted(EXPECTED))
def test_run_tuning_pretrains_on_the_method_source(method, monkeypatch):
    _, model_cls, _, _, _, source = EXPECTED[method]
    pretrained, built = [], []

    def fake_pretrained(kind, device, subgraphs, scale, seed=0):
        pretrained.append((kind, device, seed))
        return {"trained on": device}

    class FakeTuner:
        def tune(self, rounds):
            return "result"

    def fake_build_tuner(method, subgraphs, device, **kwargs):
        built.append((method, device, kwargs["pretrained"]))
        return FakeTuner()

    monkeypatch.setattr(common, "_RUNS", {})
    monkeypatch.setattr(common, "pretrained_params", fake_pretrained)
    monkeypatch.setattr(api, "build_tuner", fake_build_tuner)
    scale = common.get_scale("smoke")
    assert common.run_tuning(method, _subgraphs(), TARGET, scale, seed=2) == "result"
    if source is None:
        assert pretrained == []
        assert built == [(method, TARGET, None)]
    else:
        assert pretrained == [(model_cls.kind, source, 2)]
        assert built == [(method, TARGET, {"trained on": source})]


def test_an_unknown_method_is_refused_alike_at_every_door(tmp_path):
    message = f"unknown method {UNKNOWN!r}; valid methods: {sorted(EXPECTED)}"
    with pytest.raises(SearchError) as excinfo:
        api.build_tuner(UNKNOWN, _subgraphs(), TARGET)
    assert str(excinfo.value) == message

    stack = Stack(tmp_path / "http")
    try:
        request = urllib.request.Request(
            stack.url + "/jobs",
            data=json.dumps({"network": "bert_tiny", "method": UNKNOWN}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as http:
            urllib.request.urlopen(request, timeout=5)
        assert http.value.code == 400
        assert json.loads(http.value.read())["error"] == message
    finally:
        stack.close()

    out = io.StringIO()
    code = cli_main(
        ["tune", "--network", "bert_tiny", "--method", UNKNOWN,
         "--cache-dir", str(tmp_path / "cli")],
        out=out,
    )
    assert code == 1
    assert out.getvalue() == f"error: {message}\n"


def test_the_api_docstring_tables_exactly_the_methods():
    rows = re.findall(r"^``([a-z-]+)``\s", api.__doc__, re.MULTILINE)
    assert rows == list(api.METHODS)
