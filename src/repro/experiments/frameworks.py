"""Comparisons against inference frameworks: Figures 9 and 10."""

from __future__ import annotations

import math

from repro.baselines import FelixTuner
from repro.baselines.frameworks import framework_latency
from repro.errors import TuningFailure
from repro.experiments.common import (
    Scale,
    get_scale,
    normalized_performance,
    run_tuning,
)
from repro.hardware.device import get_device
from repro.ir.partition import dedupe_tasks
from repro.workloads import llama_decode_tasks, network_tasks


def versus_frameworks(
    scale: str | Scale = "lite",
    networks: tuple[str, ...] = (
        "resnet50",
        "mobilenet_v2",
        "densenet121",
        "vit",
        "bert_tiny",
        "gpt2",
    ),
    device: str = "a100",
) -> dict:
    """Figure 9: normalized performance vs PyTorch / Triton / TensorRT."""
    scale = get_scale(scale)
    dev = get_device(device)
    out: dict = {"scale": scale.name, "normalized": {}, "latency_ms": {}}
    speedups: dict[str, list[float]] = {}
    for net in networks:
        subs = network_tasks(net, top_k=scale.tasks_per_network)
        latencies = {
            fw: framework_latency(fw, subs, dev)
            for fw in ("pytorch", "triton", "tensorrt")
        }
        moa = run_tuning("moa-pruner", subs, device, scale)
        latencies["moa-pruner"] = moa.final_latency
        out["latency_ms"][net] = {k: v * 1e3 for k, v in latencies.items()}
        out["normalized"][net] = normalized_performance(latencies)
        for fw in ("pytorch", "triton", "tensorrt"):
            speedups.setdefault(fw, []).append(
                latencies[fw] / latencies["moa-pruner"]
            )
    out["avg_speedup"] = {fw: sum(v) / len(v) for fw, v in speedups.items()}
    return out


def llama_long_context(
    scale: str | Scale = "lite",
    contexts: tuple[int, ...] = (1024, 4096),
    batch: int = 32,
    device: str = "a100",
) -> dict:
    """Figure 10: Llama decoding with long contexts, bs=32, full precision.

    Compares MoA-Pruner against frameworks and search-based compilers on
    the decode-phase subgraphs (fixed linears + KV-length attention).
    """
    scale = get_scale(scale)
    dev = get_device(device)
    out: dict = {
        "scale": scale.name,
        "normalized": {},
        "latency_ms": {},
        "curves": {},
    }
    for ctx in contexts:
        subs = dedupe_tasks(llama_decode_tasks(batch=batch, context=ctx))
        latencies = {
            fw: framework_latency(fw, subs, dev)
            for fw in ("pytorch", "triton", "tensorrt")
        }
        ansor = run_tuning("ansor", subs, device, scale)
        latencies["ansor"] = ansor.final_latency
        try:
            felix = FelixTuner(dev)
            latencies["felix"] = felix.tune(subs, scale.rounds).final_latency
        except TuningFailure:
            latencies["felix"] = math.inf
        moa = run_tuning("moa-pruner", subs, device, scale)
        latencies["moa-pruner"] = moa.final_latency

        key = f"ctx{ctx}"
        out["latency_ms"][key] = {
            k: (v * 1e3 if math.isfinite(v) else float("inf"))
            for k, v in latencies.items()
        }
        out["normalized"][key] = normalized_performance(latencies)
        if ctx == contexts[0]:
            out["curves"]["ansor"] = [
                [p.sim_time, p.latency * 1e3]
                for p in ansor.curve
                if math.isfinite(p.latency)
            ]
            out["curves"]["moa-pruner"] = [
                [p.sim_time, p.latency * 1e3]
                for p in moa.curve
                if math.isfinite(p.latency)
            ]
    return out
