"""End-to-end network tuning: ResNet-50, online mode, three tuners.

Reproduces the Figure 6 experience at example scale: partition the
network into weighted subgraph tasks, tune with Ansor / Pruner /
MoA-Pruner, and compare tuning curves and search time.

    python examples/tune_resnet_online.py
"""

from repro import api
from repro.experiments.common import get_scale, pretrained_params
from repro.workloads import network_tasks


def main() -> None:
    scale = get_scale("lite")
    subgraphs = network_tasks("resnet50", top_k=scale.tasks_per_network)
    print(f"ResNet-50 partitioned into {len(subgraphs)} heaviest tasks:")
    for sub in subgraphs:
        print(f"  {sub}")

    results = {}
    for method in ("ansor", "pruner", "moa-pruner"):
        pretrained = None
        if method == "moa-pruner":
            # cross-platform siamese, pre-trained on the simulated K80
            pretrained = pretrained_params("pacm", "k80", subgraphs, scale)
        tuner = api.build_tuner(
            method,
            subgraphs,
            "a100",
            search=scale.search,
            train=scale.train,
            pretrained=pretrained,
        )
        results[method] = tuner.tune(scale.rounds)
        r = results[method]
        print(
            f"{method:12s} final={r.final_latency * 1e3:7.3f} ms  "
            f"search={r.clock.total:6.0f} s  trials={r.total_trials}"
        )

    target = results["ansor"].final_latency
    for method in ("pruner", "moa-pruner"):
        t = results[method].time_to(target)
        total = results["ansor"].clock.total
        print(
            f"{method} reaches Ansor's final quality in {t:.0f}s "
            f"vs Ansor's {total:.0f}s -> {total / t:.2f}x search speedup"
        )


if __name__ == "__main__":
    main()
