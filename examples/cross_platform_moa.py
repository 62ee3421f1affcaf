"""Cross-platform online adaptation with MoA (paper Section 4.3).

Demonstrates the *cross-platform online unawareness* problem and MoA's
answer: a PaCM pre-trained on the simulated K80 ranks schedules notably
worse on the A100 (the device residuals differ), and the momentum
siamese update adapts it online without a target-platform dataset.

    python examples/cross_platform_moa.py
"""

from repro.core.moa import MomentumAdapter
from repro.costmodel import PaCM
from repro.dataset import tenset_dataset, top_k_score
from repro.experiments.common import get_scale, pretrained_params
from repro.workloads import network_tasks
from repro import api


def main() -> None:
    scale = get_scale("lite")
    subgraphs = network_tasks("bert_base", top_k=scale.tasks_per_network)

    # 1. pre-train PaCM on the source platform (K80)
    source_params = pretrained_params("pacm", "k80", subgraphs, scale)

    # 2. the cross-platform gap: evaluate the K80 model on A100 data
    a100_data = tenset_dataset(
        "a100",
        networks=("bert_base",),
        schedules_per_task=scale.dataset_schedules,
        tasks_per_network=scale.tasks_per_network,
    )
    k80_model = PaCM()
    k80_model.set_params(source_params)
    print(f"K80-pretrained PaCM on A100 data: top-1 = "
          f"{top_k_score(k80_model, a100_data, k=1):.3f} (cross-platform gap)")

    # 3. tune on A100: pure online Pruner vs MoA-Pruner (same budget)
    online = api.build_tuner(
        "pruner", subgraphs, "a100", search=scale.search, train=scale.train
    ).tune(scale.rounds)
    moa_tuner = api.build_tuner(
        "moa-pruner",
        subgraphs,
        "a100",
        search=scale.search,
        train=scale.train,
        pretrained=source_params,
    )
    moa = moa_tuner.tune(scale.rounds)

    # 4. MoA's cross-platform initialisation pays off early: compare the
    #    curves at the halfway point and at the end.
    half = len(online.curve) // 2
    print(f"half-way latency : online {online.curve[half].latency * 1e3:.3f} ms"
          f"  vs MoA {moa.curve[half].latency * 1e3:.3f} ms")
    print(f"final latency    : online {online.final_latency * 1e3:.3f} ms"
          f"  vs MoA {moa.final_latency * 1e3:.3f} ms")

    # 5. and the siamese weights moved toward the target platform
    adapter: MomentumAdapter = moa_tuner.adapter
    drift = adapter.drift(source_params)
    print(f"siamese parameter drift from the K80 checkpoint: {drift:.4f}")


if __name__ == "__main__":
    main()
