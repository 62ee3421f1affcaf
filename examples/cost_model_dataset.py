"""Dataset metrics: generate a TenSet-style corpus and score cost models.

Reproduces the Section 6.5 methodology at example scale: build a
labelled corpus on the simulated T4, train TenSetMLP / TLP / PaCM, and
report the Top-k metric (Eq. 2) on held-out networks, plus the Best-k
quality (Eq. 3) of LSE's drafted candidate sets.

    python examples/cost_model_dataset.py
"""

import math

from repro.config import SearchConfig
from repro.core.analyzer import SymbolBasedAnalyzer
from repro.core.lse import LatentScheduleExplorer
from repro.costmodel import PaCM, TenSetMLP, TLPModel
from repro.dataset import best_k_score, tenset_dataset, top_k_score
from repro.dataset.tenset import TEST_NETWORKS, TRAIN_NETWORKS
from repro.experiments.common import get_scale
from repro.hardware.device import get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower_batch


def main() -> None:
    scale = get_scale("lite")
    print("generating TenSet-style corpora on the simulated T4 ...")
    train_set = tenset_dataset(
        "t4",
        networks=TRAIN_NETWORKS,
        schedules_per_task=scale.dataset_schedules,
        tasks_per_network=scale.tasks_per_network,
    )
    test_set = tenset_dataset(
        "t4",
        networks=TEST_NETWORKS[:3],
        schedules_per_task=scale.dataset_schedules,
        tasks_per_network=scale.tasks_per_network,
        seed=1,
    )
    print(f"train: {len(train_set)} programs / {len(train_set.task_keys)} tasks; "
          f"test: {len(test_set)} programs")

    progs, lats, keys = train_set.training_data()
    for name, model in (
        ("TenSetMLP", TenSetMLP()),
        ("TLP", TLPModel()),
        ("PaCM", PaCM()),
    ):
        model.fit(progs, lats, keys, train=scale.offline_train, rng=make_rng(0))
        top1 = top_k_score(model, test_set, k=1)
        top5 = top_k_score(model, test_set, k=5)
        print(f"{name:10s} top-1={top1:.3f}  top-5={top5:.3f}")

    # Best-k of LSE's drafted sets (Eq. 3) on the test tasks
    device = get_device("t4")
    sim = GroundTruthSimulator(device)
    lse = LatentScheduleExplorer(
        SymbolBasedAnalyzer(device),
        SearchConfig(population=64, ga_steps=3, spec_size=48),
    )
    spec_lat, optimal, weights = {}, {}, {}
    for key, entries in test_set.by_task().items():
        space = generate_sketch(entries[0].prog.workload)
        result = lse.explore(space, make_rng(1))
        spec_lat[key] = sim.latency_batch(lower_batch(space, result.spec)).tolist()
        pool_best = min(e.latency for e in entries if math.isfinite(e.latency))
        spec_best = min(l for l in spec_lat[key] if math.isfinite(l))
        optimal[key] = min(pool_best, spec_best)
        weights[key] = entries[0].weight
    for k in (1, 5):
        print(f"LSE Best-{k} = {best_k_score(spec_lat, optimal, weights, k=k):.3f}")


if __name__ == "__main__":
    main()
