"""Figure 7's search-time speedups and Table 12 against a frozen file.

``fixtures/paper_golden.json`` was written by :func:`paper_golden` from a
cold pre-training cache.  It holds, floats as ``float.hex``,
:func:`repro.experiments.e2e.search_time_speedups` and
:func:`repro.experiments.ablation.online_ablation` at the ``smoke``
scale on bert_tiny and resnet50:

* ``speedups`` — per network, how much sooner Pruner / MoA-Pruner /
  offline Pruner reach each baseline's final latency;
* ``geomean`` — those speedups' geometric mean per pair;
* ``runs`` — every tuning run behind them (``<corpus tag>/<method>``):
  its final latency and ``clock.total``;
* ``table12`` — per network, each online ablation variant's final
  latency in ms (values only: the directions are not claims here).

``PYTHONPATH=src python tests/test_paper_golden.py`` rewrites it — only
for a deliberate change of what a tuning run measures.
"""

from __future__ import annotations

import json
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

from repro.experiments import ablation, common, e2e

FIXTURE = Path(__file__).parent / "fixtures" / "paper_golden.json"
SCALE = "smoke"
NETWORKS = ("bert_tiny", "resnet50")


@contextmanager
def _cold_cache():
    """Pre-train every model afresh: no memory or disk cache hits."""
    with tempfile.TemporaryDirectory() as tmp:
        with mock.patch.object(common, "RESULTS_DIR", Path(tmp)), mock.patch.object(
            common, "_MEM_CACHE", {}
        ):
            yield


def paper_golden() -> dict:
    """What ``fixtures/paper_golden.json`` holds (module docstring)."""
    runs: dict[str, list[str]] = {}
    run_tuning = e2e.run_tuning

    def recorded(method, subgraphs, device, scale, corpus_tag, **kwargs):
        result = run_tuning(method, subgraphs, device, scale, corpus_tag, **kwargs)
        runs[f"{corpus_tag}/{method}"] = [
            result.final_latency.hex(),
            result.clock.total.hex(),
        ]
        return result

    with _cold_cache(), mock.patch.object(e2e, "run_tuning", recorded):
        out = e2e.search_time_speedups(SCALE, NETWORKS)
        table12 = ablation.online_ablation(SCALE, ("resnet50", "bert_tiny"))
    return {
        "speedups": {
            net: {pair: value.hex() for pair, value in pairs.items()}
            for net, pairs in out["speedups"].items()
        },
        "geomean": {pair: value.hex() for pair, value in out["geomean"].items()},
        "runs": runs,
        "table12": {
            net: {label: value.hex() for label, value in row.items()}
            for net, row in table12["latency_ms"].items()
        },
    }


def test_search_time_speedups_reproduce_the_frozen_file():
    assert paper_golden() == json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    # Rewrites the frozen file from today's code: only for a deliberate
    # change of what a tuning run measures.
    FIXTURE.write_text(json.dumps(paper_golden(), indent=1) + "\n")
