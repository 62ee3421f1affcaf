"""Comparisons against other tensor compilers: Figure 8 and Table 6."""

from __future__ import annotations

import math

from repro.baselines import AdatuneTuner, FelixTuner, RollerTuner, TLMTuner
from repro.baselines.frameworks import framework_latency
from repro.errors import TuningFailure
from repro.experiments.common import (
    Scale,
    get_scale,
    normalized_performance,
    run_tuning,
)
from repro.hardware.device import get_device
from repro.workloads import network_tasks

#: networks whose subgraphs TLM saw during pre-training (others fail)
TLM_CORPUS_NETWORKS = ("resnet50", "inception_v3", "bert_tiny", "llama")


def versus_more_compilers(
    scale: str | Scale = "lite",
    networks: tuple[str, ...] = (
        "resnet50",
        "mobilenet_v2",
        "densenet121",
        "vit",
        "bert_tiny",
        "dcgan",
        "llama",
    ),
    device: str = "a100",
) -> dict:
    """Figure 8: vs Adatune / Felix / TLM; failures are marked 'X' (inf).

    Adatune fails on transposed convolutions (DCGAN); Felix on irregular
    / special operators; TLM on networks outside its pre-training set.
    """
    scale = get_scale(scale)
    dev = get_device(device)
    tlm = TLMTuner(dev, corpus_size=scale.dataset_schedules)
    for net in TLM_CORPUS_NETWORKS:
        tlm.pretrain(network_tasks(net, top_k=scale.tasks_per_network))

    out: dict = {"scale": scale.name, "normalized": {}, "latency_ms": {}}
    speedup_lists: dict[str, list[float]] = {}
    for net in networks:
        subs = network_tasks(net, top_k=scale.tasks_per_network)
        latencies: dict[str, float] = {}
        try:
            ada = AdatuneTuner(dev, search=scale.search, train=scale.train)
            latencies["adatune"] = ada.tune(subs, scale.rounds).final_latency
        except TuningFailure:
            latencies["adatune"] = math.inf
        try:
            felix = FelixTuner(dev)
            latencies["felix"] = felix.tune(subs, scale.rounds).final_latency
        except TuningFailure:
            latencies["felix"] = math.inf
        try:
            lat, _ = tlm.tune_subgraphs(subs)
            latencies["tlm"] = lat
        except TuningFailure:
            latencies["tlm"] = math.inf
        moa = run_tuning("moa-pruner", subs, device, scale)
        latencies["moa-pruner"] = moa.final_latency

        out["latency_ms"][net] = {k: v * 1e3 for k, v in latencies.items()}
        out["normalized"][net] = normalized_performance(latencies)
        for method in ("adatune", "felix", "tlm"):
            if math.isfinite(latencies[method]):
                speedup_lists.setdefault(method, []).append(
                    latencies[method] / latencies["moa-pruner"]
                )
    out["avg_speedup"] = {
        m: sum(v) / len(v) for m, v in speedup_lists.items() if v
    }
    return out


def versus_roller(
    scale: str | Scale = "lite",
    device: str = "titanv",
    cases: tuple[tuple[str, int], ...] = (
        ("resnet50", 1),
        ("resnet50", 128),
        ("bert_large", 1),
    ),
) -> dict:
    """Table 6: Roller (50 trials/subgraph) vs PyTorch / Ansor / Pruner."""
    scale = get_scale(scale)
    dev = get_device(device)
    out: dict = {"scale": scale.name, "rows": {}}
    for net, batch in cases:
        name = f"{net}_bs{batch}"
        subs = network_tasks(net, batch=batch, top_k=scale.tasks_per_network)
        roller = RollerTuner(dev, trials=20, enumeration=scale.dataset_schedules)
        row = {
            "pytorch": framework_latency("pytorch", subs, dev) * 1e3,
            "roller": roller.tune_subgraphs(subs).latency * 1e3,
            "ansor": run_tuning("ansor", subs, device, scale).final_latency * 1e3,
            "moa-pruner": (
                run_tuning("moa-pruner", subs, device, scale).final_latency * 1e3
            ),
        }
        out["rows"][name] = row
    return out
