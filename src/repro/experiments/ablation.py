"""Ablation studies: Tables 12/13 and Figure 16 (Section 6.6)."""

from __future__ import annotations

import math

from repro.experiments.common import Scale, get_scale, run_tuning
from repro.workloads import network_tasks

ONLINE_VARIANTS = {
    "ansor": "ansor",
    "w/o LSE": "pruner-no-lse",
    "w/o S.F.": "pruner-no-sf",
    "w/o T.D.F": "pruner-no-tdf",
    "w/o MoA": "pruner",
    "w/ O-F": "pruner-finetune",
    "moa-pruner": "moa-pruner",
}


def online_ablation(
    scale: str | Scale = "lite",
    networks: tuple[str, ...] = ("resnet50", "bert_tiny"),
    device: str = "titanv",
) -> dict:
    """Table 12: remove LSE / S.F. / T.D.F. / MoA, or use plain online FT."""
    scale = get_scale(scale)
    out: dict = {"scale": scale.name, "latency_ms": {}}
    for net in networks:
        subs = network_tasks(net, top_k=scale.tasks_per_network)
        row = {}
        for label, method in ONLINE_VARIANTS.items():
            result = run_tuning(method, subs, device, scale)
            row[label] = result.final_latency * 1e3
        out["latency_ms"][net] = row
    return out


def offline_ablation(
    scale: str | Scale = "lite",
    networks: tuple[str, ...] = ("resnet50", "bert_tiny"),
    device: str = "a100",
) -> dict:
    """Table 13: is LSE still worth it with a well-pre-trained model?

    Compares offline Pruner against the same pre-trained PaCM driving an
    evolutionary search over all candidates ("w/o LSE"): LSE keeps both
    latency and compile cost lower because formula evaluations replace
    per-candidate feature extraction + model inference.
    """
    scale = get_scale(scale)
    out: dict = {"scale": scale.name, "rows": {}}
    for net in networks:
        subs = network_tasks(net, top_k=scale.tasks_per_network)
        no_lse = run_tuning("pruner-offline-no-lse", subs, device, scale)
        offline = run_tuning("pruner-offline", subs, device, scale)
        out["rows"][net] = {
            "w/o LSE": {
                "perf_ms": no_lse.final_latency * 1e3,
                "cost_min": no_lse.clock.total / 60.0,
            },
            "pruner-offline": {
                "perf_ms": offline.final_latency * 1e3,
                "cost_min": offline.clock.total / 60.0,
            },
        }
    return out


def ablation_curve(
    scale: str | Scale = "lite",
    network: str = "resnet50",
    device: str = "titanv",
    variants: tuple[str, ...] = ("ansor", "w/o LSE", "w/o T.D.F", "w/o MoA", "moa-pruner"),
) -> dict:
    """Figure 16: ResNet-50 tuning curves for the ablation variants."""
    scale = get_scale(scale)
    subs = network_tasks(network, top_k=scale.tasks_per_network)
    out: dict = {"scale": scale.name, "curves": {}, "final_ms": {}}
    for label in variants:
        method = ONLINE_VARIANTS[label]
        result = run_tuning(method, subs, device, scale)
        out["curves"][label] = [
            [p.sim_time, p.latency * 1e3]
            for p in result.curve
            if math.isfinite(p.latency)
        ]
        out["final_ms"][label] = result.final_latency * 1e3
    return out
