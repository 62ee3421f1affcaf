"""TensorCore experiments: Figures 12/13 and Tables 8/9 (Section 6.4)."""

from __future__ import annotations

import math

from repro.baselines.frameworks import framework_latency, framework_op_latency
from repro.experiments.common import (
    Scale,
    geomean,
    get_scale,
    normalized_performance,
    run_tuning,
)
from repro.hardware.device import get_device
from repro.hardware.library import LibrarySurrogate
from repro.ir import ops
from repro.ir.partition import SubgraphTask, dedupe_tasks
from repro.workloads import llama_decode_tasks, network_tasks

TC_MODELS = ("bert_tiny", "bert_base", "gpt2", "llama", "opt_1_3b", "mistral_7b")


def versus_metaschedule(
    scale: str | Scale = "lite",
    models: tuple[str, ...] = TC_MODELS[:4],
    batches: tuple[int, ...] = (1, 4),
    device: str = "a100",
) -> dict:
    """Figure 12: fp16 LLM inference on TensorCore, bs 1 and 4."""
    scale = get_scale(scale)
    dev = get_device(device)
    out: dict = {"scale": scale.name, "normalized": {}, "latency_ms": {}}
    ratio_ms: list[float] = []
    for batch in batches:
        for net in models:
            subs = network_tasks(net, batch=batch, dtype="float16",
                                 top_k=scale.tasks_per_network)
            latencies = {
                "pytorch": framework_latency("pytorch", subs, dev, tensorcore=True),
                "triton": framework_latency("triton", subs, dev, tensorcore=True),
            }
            ms = run_tuning("metaschedule", subs, device, scale)
            pr = run_tuning("pruner-tc", subs, device, scale)
            latencies["metaschedule"] = ms.final_latency
            latencies["pruner"] = pr.final_latency
            key = f"{net}/bs{batch}"
            out["latency_ms"][key] = {k: v * 1e3 for k, v in latencies.items()}
            out["normalized"][key] = normalized_performance(latencies)
            ratio_ms.append(latencies["metaschedule"] / latencies["pruner"])
    out["avg_speedup_vs_metaschedule"] = sum(ratio_ms) / len(ratio_ms)
    return out


def search_speedup(
    scale: str | Scale = "lite",
    models: tuple[str, ...] = TC_MODELS[:4],
    batches: tuple[int, ...] = (1, 4),
    device: str = "a100",
    tolerance: float = 0.05,
) -> dict:
    """Table 9: time for Pruner to reach MetaSchedule's best schedule.

    ``tolerance`` widens the target band (reach within 5% of the
    MetaSchedule final) so small-scale runs are not dominated by
    measurement noise on the very last percent; ``full`` scale uses the
    exact target.
    """
    scale = get_scale(scale)
    if scale.name == "full":
        tolerance = 0.0
    out: dict = {"scale": scale.name, "speedups": {}}
    for batch in batches:
        for net in models:
            subs = network_tasks(net, batch=batch, dtype="float16",
                                 top_k=scale.tasks_per_network)
            ms = run_tuning("metaschedule", subs, device, scale)
            pr = run_tuning("pruner-tc", subs, device, scale)
            target = ms.final_latency * (1.0 + tolerance)
            t = pr.time_to(target)
            s = ms.clock.total / t if math.isfinite(t) and t > 0 else float("nan")
            out["speedups"][f"{net}/bs{batch}"] = s
    out["geomean"] = geomean(out["speedups"].values())
    return out


def gpt2_linear_ops(scale: str | Scale = "lite", device: str = "a100") -> dict:
    """Table 8: GPT-2 linear layers — cudaLib (with splitK) vs Pruner.

    Shapes are (m=batch*ctx, n, k) fp16 matmuls; cudaLib wins op 4 where
    the reduction axis is long (3072) and the parallel extent small.
    """
    scale = get_scale(scale)
    dev = get_device(device)
    shapes = {
        "1": (128, 2304, 768),
        "2": (128, 768, 768),
        "3": (128, 3072, 768),
        "4": (128, 768, 3072),
    }
    lib = LibrarySurrogate(dev, quality=0.92)
    out: dict = {"scale": scale.name, "rows": {}}
    for op_id, (m, n, k) in shapes.items():
        wl = ops.matmul(m, n, k, dtype="float16")
        kernel = lib.kernel(wl, tensorcore=True)
        pruner = run_tuning("pruner-tc", [SubgraphTask(wl, 1)], device, scale)
        out["rows"][op_id] = {
            "shape": f"({m},{n},{k})",
            "cudalib_us": kernel.latency * 1e6,
            "splitk": kernel.used_splitk,
            "pruner_us": pruner.final_latency * 1e6,
        }
    return out


def llama_decode_ops(
    scale: str | Scale = "lite",
    batch: int = 32,
    context: int = 1024,
    device: str = "a100",
) -> dict:
    """Figure 13: per-op Llama decode performance on TensorCore.

    Linear projections are fixed matmuls (m = batch); attention matmuls
    scale with the KV length.  The decode attention ops (m = 1 rows per
    head) are not WMMA-eligible and fall back to CUDA cores — as
    MetaSchedule also must.
    """
    scale = get_scale(scale)
    dev = get_device(device)
    subs = dedupe_tasks(
        llama_decode_tasks(batch=batch, context=context, dtype="float16")
    )
    out: dict = {"scale": scale.name, "normalized": {}, "latency_us": {}}
    for sub in subs:
        wl = sub.workload
        latencies = {
            "cudalib": framework_op_latency("pytorch", sub, dev, tensorcore=True),
            "triton": framework_op_latency("triton", sub, dev, tensorcore=True),
        }
        ms = run_tuning("metaschedule", [sub], device, scale)
        pr = run_tuning("pruner-tc", [sub], device, scale)
        # per-op latency: strip the task weight that run_tuning sums over
        latencies["metaschedule"] = ms.final_latency / max(1, sub.weight)
        latencies["pruner"] = pr.final_latency / max(1, sub.weight)
        out["latency_us"][wl.name] = {k: v * 1e6 for k, v in latencies.items()}
        out["normalized"][wl.name] = normalized_performance(latencies)
    return out
