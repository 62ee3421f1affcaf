"""Tuning-cost experiments: Table 1 and Table 7."""

from __future__ import annotations

from repro.experiments.common import Scale, get_scale, run_tuning
from repro.workloads import network_tasks


def tuning_cost_breakdown(
    scale: str | Scale = "lite",
    networks: tuple[str, ...] = ("resnet50", "detr", "inception_v3"),
    device: str = "orin",
) -> dict:
    """Table 1: Ansor's exploration / training / measurement split."""
    scale = get_scale(scale)
    out: dict = {"measured": {}, "scale": scale.name}
    for net in networks:
        subs = network_tasks(net, top_k=scale.tasks_per_network)
        result = run_tuning("ansor", subs, device, scale)
        breakdown = result.clock.breakdown()
        out["measured"][net] = {
            "exploration": breakdown["exploration"] / 60.0,
            "training": breakdown["training"] / 60.0,
            "measurement": breakdown["measurement"] / 60.0,
            "exploration_share": breakdown["exploration"] / result.clock.total,
        }
    return out


def compilation_time(
    scale: str | Scale = "lite",
    networks: tuple[str, ...] = ("resnet50", "vit", "bert_base"),
    device: str = "titanv",
    methods: tuple[str, ...] = ("ansor", "pruner", "moa-pruner"),
) -> dict:
    """Table 7: total compilation time per method, and its ratio to Ansor's."""
    scale = get_scale(scale)
    out: dict = {"measured": {}, "ratios": {}, "scale": scale.name}
    for net in networks:
        subs = network_tasks(net, top_k=scale.tasks_per_network)
        per_method = {}
        for method in methods:
            result = run_tuning(method, subs, device, scale)
            per_method[method] = result.clock.total / 60.0
        out["measured"][net] = per_method
    ansor_total = sum(out["measured"][n]["ansor"] for n in networks)
    for method in methods:
        total = sum(out["measured"][n][method] for n in networks)
        out["ratios"][method] = total / ansor_total
    return out
