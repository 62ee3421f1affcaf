"""Single-operator tuning benchmark: Figure 11."""

from __future__ import annotations

from repro.baselines.frameworks import framework_op_latency
from repro.experiments.common import (
    Scale,
    get_scale,
    normalized_performance,
    run_tuning,
)
from repro.hardware.device import get_device
from repro.ir.partition import SubgraphTask
from repro.workloads import single_op_suite


def single_operator_bench(
    scale: str | Scale = "lite",
    device: str = "a100",
    cases: tuple[str, ...] | None = None,
) -> dict:
    """Figure 11: matmul / conv cases, PyTorch vs Ansor vs Pruner.

    The paper tunes each operator with 800 trials and *no* pre-trained
    model; M-2 is the splitK-friendly case where PyTorch's cuBLAS wins.
    """
    scale = get_scale(scale)
    dev = get_device(device)
    suite = single_op_suite()
    names = cases or tuple(suite)
    out: dict = {"scale": scale.name, "normalized": {}, "latency_us": {}, "search_s": {}}
    for name in names:
        wl = suite[name]
        sub = SubgraphTask(wl, 1)
        latencies = {
            "pytorch": framework_op_latency("pytorch", sub, dev),
        }
        ansor = run_tuning("ansor", [sub], device, scale)
        pruner = run_tuning("pruner", [sub], device, scale)
        latencies["ansor"] = ansor.final_latency
        latencies["pruner"] = pruner.final_latency
        out["latency_us"][name] = {k: v * 1e6 for k, v in latencies.items()}
        out["normalized"][name] = normalized_performance(latencies)
        out["search_s"][name] = {
            "ansor": ansor.clock.total,
            "pruner": pruner.clock.total,
        }
    wins = sum(
        1
        for name in names
        if out["normalized"][name]["pruner"] >= out["normalized"][name]["ansor"]
    )
    out["pruner_beats_ansor"] = f"{wins}/{len(names)}"
    return out
