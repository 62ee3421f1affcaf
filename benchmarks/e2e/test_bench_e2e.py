"""Tier-1 check of the end-to-end benchmark at smoke scale (seconds).

Runs every workload once untraced and once traced through the same
command the full benchmark uses, then checks the contract the later
perf issues rely on: every metric ``BENCHMARK.json`` names is reported,
span self times are sane, and the tracer leaves ``repro`` as it found it.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer, add_self_times, load_spans  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench_e2e") / "BENCH_smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return json.loads(out.read_text())


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in W.WORKLOADS.values()
    ]
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in M.END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in M.PER_LAYER
    ]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_every_named_metric_is_reported(smoke):
    assert set(smoke["workloads"]) == set(W.WORKLOADS)
    for name, got in smoke["workloads"].items():
        assert got["failed"] == 0, (name, got["errors"])
        assert got["attempted"] >= 4
        for metric in BENCHMARK["end_to_end"]:
            value = got["end_to_end"][metric["name"]]["value"]
            assert math.isfinite(value) and value > 0, (name, metric["name"], value)
        for metric in BENCHMARK["per_layer"]:
            value = got["per_layer"][metric["name"]]["value"]
            assert math.isfinite(value), (name, metric["name"], value)
    # layers a workload never enters read 0 there, and only there
    serve = smoke["workloads"]["serve_small_jobs"]["per_layer"]
    online = smoke["workloads"]["online_pruner"]["per_layer"]
    assert serve["serve.handle_lease_s"]["value"] > 0
    assert serve["service.append_rows"]["value"] > 0
    assert online["serve.handle_lease_s"]["value"] == 0
    assert online["costmodel.fit_s"]["value"] > 0
    assert smoke["workloads"]["offline_pruner"]["per_layer"]["costmodel.fit_s"]["value"] == 0


def test_span_self_times_stay_within_their_spans(smoke):
    for name in W.WORKLOADS:
        spans = load_spans(HERE / "results" / f"trace_{name}.json")
        assert spans, name
        add_self_times(spans)
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            # children never cover more than their parent (clock jitter aside)
            assert -1e-6 <= span["self"] <= span["dur"] + 1e-9, (name, span)
            parent = by_id.get(span["parent"])
            if parent is not None:
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"], (
                    name,
                    span,
                )


def _repro_bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded ``repro`` module and of its classes."""
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            found[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for inner, member in list(vars(value).items()):
                    found[(f"{mod_name}.{attr}", inner)] = member
    return found


def test_tracer_restores_everything_it_patched():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()  # first round only imports every target module
    before = _repro_bindings()

    tracer.install()
    try:
        patched = tracer.patched()
        assert len(patched) >= len(tracer.targets)
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
    finally:
        tracer.uninstall()

    assert not tracer.patched()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    after = _repro_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
