"""Figure 7, Figure 14 and Tables 10, 12 and 13 against a frozen file.

``fixtures/paper_golden.json`` was written by :func:`paper_golden` from a
cold pre-training cache.  It holds, floats as ``float.hex``, at the
``smoke`` scale, :func:`repro.experiments.e2e.search_time_speedups` and
:func:`repro.experiments.ablation.online_ablation` /
:func:`~repro.experiments.ablation.offline_ablation` on bert_tiny and
resnet50, plus :func:`repro.experiments.dataset_metrics.lse_penalty_ablation`
and :func:`~repro.experiments.dataset_metrics.lse_vs_ga_bestk` at their
default arguments:

* ``speedups`` — per network, how much sooner Pruner / MoA-Pruner /
  offline Pruner reach each baseline's final latency;
* ``geomean`` — those speedups' geometric mean per pair;
* ``runs`` — every tuning run behind them (``f7-<network>/<method>``):
  its final latency and ``clock.total``;
* ``table12`` — per network, each online ablation variant's final
  latency in ms;
* ``table10`` — per penalty variant and spec size, Best-1 of the
  drafted set;
* ``table13`` — per network, offline Pruner with and without LSE:
  final latency in ms and compile cost in minutes;
* ``fig14`` — Best-k of LSE-drafted sets and of random GA subsets.

Values only: the directions are not claims here (at ``smoke`` several
do not hold); they are checked at ``lite`` in ``benchmarks/bench_paper.py``.

``PYTHONPATH=src python tests/test_paper_golden.py`` rewrites it — only
for a deliberate change of what a tuning run measures.
"""

from __future__ import annotations

import json
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

from repro.experiments import ablation, common, dataset_metrics, e2e
from repro.workloads import network_tasks

FIXTURE = Path(__file__).parent / "fixtures" / "paper_golden.json"
SCALE = "smoke"
NETWORKS = ("bert_tiny", "resnet50")


@contextmanager
def _cold_cache():
    """Pre-train and tune afresh: no memory or disk cache hits."""
    with tempfile.TemporaryDirectory() as tmp:
        with mock.patch.object(common, "RESULTS_DIR", Path(tmp)), mock.patch.object(
            common, "_MEM_CACHE", {}
        ), mock.patch.object(common, "_RUNS", {}):
            yield


def paper_golden() -> dict:
    """What ``fixtures/paper_golden.json`` holds (module docstring)."""
    runs: dict[str, list[str]] = {}
    run_tuning = e2e.run_tuning
    top_k = common.get_scale(SCALE).tasks_per_network
    networks = {tuple(network_tasks(net, top_k=top_k)): net for net in NETWORKS}

    def recorded(method, subgraphs, device, scale, **kwargs):
        result = run_tuning(method, subgraphs, device, scale, **kwargs)
        runs[f"f7-{networks[tuple(subgraphs)]}/{method}"] = [
            result.final_latency.hex(),
            result.clock.total.hex(),
        ]
        return result

    with _cold_cache(), mock.patch.object(e2e, "run_tuning", recorded):
        out = e2e.search_time_speedups(SCALE, NETWORKS)
        table12 = ablation.online_ablation(SCALE, ("resnet50", "bert_tiny"))
        table10 = dataset_metrics.lse_penalty_ablation(SCALE)
        table13 = ablation.offline_ablation(SCALE, ("resnet50", "bert_tiny"))
        fig14 = dataset_metrics.lse_vs_ga_bestk(SCALE)
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
        "table10": {
            name: {str(size): value.hex() for size, value in row.items()}
            for name, row in table10["best1"].items()
        },
        "table13": {
            net: {
                variant: {field: value.hex() for field, value in cell.items()}
                for variant, cell in row.items()
            }
            for net, row in table13["rows"].items()
        },
        "fig14": {case: value.hex() for case, value in fig14["scores"].items()},
    }


def test_search_time_speedups_reproduce_the_frozen_file():
    assert paper_golden() == json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    # Rewrites the frozen file from today's code: only for a deliberate
    # change of what a tuning run measures.
    FIXTURE.write_text(json.dumps(paper_golden(), indent=1) + "\n")
