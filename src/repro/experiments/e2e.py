"""End-to-end workload benchmarks: Figures 6/7 and Table 5."""

from __future__ import annotations

import math

from repro.experiments.common import (
    Scale,
    geomean,
    get_scale,
    run_tuning,
    speedup_to_reach,
)
from repro.search.tuner import TuneResult
from repro.workloads import network_tasks

ONLINE_METHODS = ("ansor", "pruner", "moa-pruner")
OFFLINE_METHODS = ("tensetmlp", "tlp", "pruner-offline")


def _curve_points(result: TuneResult) -> list[list[float]]:
    return [
        [p.sim_time, p.latency * 1e3 if math.isfinite(p.latency) else None]
        for p in result.curve
    ]


def tuning_curves(
    scale: str | Scale = "lite",
    networks: tuple[str, ...] = ("resnet50", "bert_base"),
    devices: tuple[str, ...] = ("a100",),
    online: tuple[str, ...] = ONLINE_METHODS,
    offline: tuple[str, ...] = OFFLINE_METHODS,
) -> dict:
    """Figure 6: tuning curves, online and offline modes."""
    scale = get_scale(scale)
    out: dict = {"scale": scale.name, "curves": {}, "final_ms": {}}
    for net in networks:
        subs = network_tasks(net, top_k=scale.tasks_per_network)
        for device in devices:
            for method in tuple(online) + tuple(offline):
                result = run_tuning(method, subs, device, scale)
                key = f"{net}/{device}/{method}"
                out["curves"][key] = _curve_points(result)
                out["final_ms"][key] = result.final_latency * 1e3
    return out


def search_time_speedups(
    scale: str | Scale = "lite",
    networks: tuple[str, ...] = ("resnet50", "mobilenet_v2", "bert_tiny", "vit"),
    device: str = "a100",
) -> dict:
    """Figure 7: search time for Pruner to reach each baseline's best.

    For every network, runs the baseline to completion and measures how
    much faster Pruner / MoA-Pruner reach the baseline's final latency.
    A network where the fast method never gets there is listed under
    ``missed`` for that pair, and the pair's geomean is NaN.
    """
    scale = get_scale(scale)
    pairs = (
        ("pruner", "ansor"),
        ("moa-pruner", "ansor"),
        ("pruner-offline", "tensetmlp"),
        ("pruner-offline", "tlp"),
    )
    out: dict = {"scale": scale.name, "speedups": {}}
    for net in networks:
        subs = network_tasks(net, top_k=scale.tasks_per_network)
        baselines = {
            "ansor": run_tuning("ansor", subs, device, scale),
            "tensetmlp": run_tuning("tensetmlp", subs, device, scale),
            "tlp": run_tuning("tlp", subs, device, scale),
        }
        fast = {
            "pruner": run_tuning("pruner", subs, device, scale),
            "moa-pruner": run_tuning("moa-pruner", subs, device, scale),
            "pruner-offline": run_tuning("pruner-offline", subs, device, scale),
        }
        out["speedups"][net] = {
            f"{method}_vs_{base}": speedup_to_reach(fast[method], baselines[base])
            for method, base in pairs
        }
    out["geomean"], out["missed"] = {}, {}
    for method, base in pairs:
        pair = f"{method}_vs_{base}"
        values = [out["speedups"][net][pair] for net in networks]
        out["geomean"][pair] = geomean(values)
        out["missed"][pair] = [net for net, v in zip(networks, values) if math.isnan(v)]
    return out


def pruner_vs_more_trials(
    scale: str | Scale = "lite",
    networks: tuple[str, ...] = ("resnet50", "inception_v3", "bert_base", "bert_tiny"),
    device: str = "a100",
    trial_multiplier: int = 3,
) -> dict:
    """Table 5: MoA-Pruner (2k trials) vs Ansor with many more trials
    and TenSet's transfer strategy (2k trials)."""
    scale = get_scale(scale)
    out: dict = {"scale": scale.name, "rows": {}}
    for net in networks:
        subs = network_tasks(net, top_k=scale.tasks_per_network)
        ansor = run_tuning(
            "ansor", subs, device, scale, rounds=scale.rounds * trial_multiplier
        )
        tenset = run_tuning("tensetmlp", subs, device, scale)
        moa = run_tuning("moa-pruner", subs, device, scale)
        out["rows"][net] = {
            "ansor_more_trials": {
                "trials": ansor.total_trials,
                "perf_ms": ansor.final_latency * 1e3,
                "cost_min": ansor.clock.total / 60.0,
            },
            "tenset_transfer": {
                "trials": tenset.total_trials,
                "perf_ms": tenset.final_latency * 1e3,
                "cost_min": tenset.clock.total / 60.0,
            },
            "moa_pruner": {
                "trials": moa.total_trials,
                "perf_ms": moa.final_latency * 1e3,
                "cost_min": moa.clock.total / 60.0,
            },
        }
    return out
