"""Dataset-based metric experiments: Tables 10/11 and Figures 14/15."""

from __future__ import annotations

import math


from repro.config import SearchConfig
from repro.core.analyzer import SymbolBasedAnalyzer
from repro.core.lse import LatentScheduleExplorer
from repro.costmodel import PaCM, TenSetMLP, TLPModel
from repro.dataset import best_k_score, tenset_dataset, top_k_score
from repro.dataset.tenset import TEST_NETWORKS, TRAIN_NETWORKS
from repro.experiments.common import Scale, get_scale
from repro.hardware.device import get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir.partition import dedupe_tasks
from repro.rng import make_rng, rng_for
from repro.schedule.batch import lower_batch
from repro.schedule.sampler import random_batch
from repro.schedule.sketch import generate_sketch
from repro.workloads import network_tasks


def _test_subgraphs(scale: Scale, networks: tuple[str, ...]):
    subs = []
    for net in networks:
        subs += network_tasks(net, top_k=scale.tasks_per_network, tiled_only=True)
    return dedupe_tasks(subs)


def _spec_latencies(
    analyzer: SymbolBasedAnalyzer,
    subgraphs,
    spec_size: int,
    search: SearchConfig,
    sim: GroundTruthSimulator,
    seed: int = 0,
):
    """Run LSE per subgraph; return drafted-set true latencies + optima."""
    lse = LatentScheduleExplorer(
        analyzer,
        SearchConfig(
            population=search.population,
            ga_steps=search.ga_steps,
            spec_size=spec_size,
        ),
    )
    spec_lat: dict[str, list[float]] = {}
    for sub in subgraphs:
        space = generate_sketch(sub.workload)
        result = lse.explore(space, rng_for("lse-exp", sub.workload.key, seed))
        spec_lat[sub.workload.key] = sim.latency_batch(
            lower_batch(space, result.spec)
        ).tolist()
    return spec_lat


def lse_penalty_ablation(
    scale: str | Scale = "lite",
    device: str = "t4",
    spec_sizes: tuple[int, ...] = (12, 24, 48, 96),
    networks: tuple[str, ...] = TEST_NETWORKS[:3],
) -> dict:
    """Table 10: Best-1 of S_spec vs size, removing P_c or P_m.

    ``spec_sizes`` default to the paper's (50, 128, 256, 512) divided by
    ~4 to match the lite exploration budget; ``full`` scale restores the
    paper's sizes.
    """
    scale = get_scale(scale)
    if scale.name == "full":
        spec_sizes = (50, 128, 256, 512)
    dev = get_device(device)
    sim = GroundTruthSimulator(dev)
    subgraphs = _test_subgraphs(scale, networks)
    variants = {
        "w/o P_c": SymbolBasedAnalyzer(dev, use_compute_penalty=False),
        "w/o P_m": SymbolBasedAnalyzer(dev, use_memory_penalty=False),
        "LSE": SymbolBasedAnalyzer(dev),
    }
    n_seeds = 3 if scale.name != "full" else 1
    # per-task optimum: best over every drafted set of every variant/seed
    all_specs: dict[tuple[str, int, int], dict[str, list[float]]] = {}
    optimal: dict[str, float] = {}
    weights = {s.workload.key: s.weight for s in subgraphs}
    for name, analyzer in variants.items():
        for size in spec_sizes:
            for seed in range(n_seeds):
                spec = _spec_latencies(
                    analyzer, subgraphs, size, scale.search, sim, seed=seed
                )
                all_specs[(name, size, seed)] = spec
                for key, lats in spec.items():
                    finite = [v for v in lats if math.isfinite(v)]
                    if finite:
                        optimal[key] = min(optimal.get(key, math.inf), min(finite))

    out: dict = {"scale": scale.name, "best1": {}}
    for name in variants:
        out["best1"][name] = {
            size: sum(
                best_k_score(all_specs[(name, size, seed)], optimal, weights, k=1)
                for seed in range(n_seeds)
            )
            / n_seeds
            for size in spec_sizes
        }
    return out


def lse_vs_ga_bestk(
    scale: str | Scale = "lite",
    device: str = "t4",
    networks: tuple[str, ...] = TEST_NETWORKS,
    spec_sizes: tuple[int, ...] = (24, 48),
    ks: tuple[int, ...] = (1, 5, 20),
) -> dict:
    """Figure 14: Best-k of LSE-drafted sets vs random GA exploration."""
    scale = get_scale(scale)
    if scale.name == "full":
        spec_sizes = (256, 512)
    dev = get_device(device)
    sim = GroundTruthSimulator(dev)
    analyzer = SymbolBasedAnalyzer(dev)
    out: dict = {"scale": scale.name, "scores": {}}
    for net in networks:
        subgraphs = _test_subgraphs(scale, (net,))
        weights = {s.workload.key: s.weight for s in subgraphs}
        for size in spec_sizes:
            lse_spec = _spec_latencies(analyzer, subgraphs, size, scale.search, sim)
            # random GA: same exploration budget, no draft model — the
            # spec is a random subset of the explored pool.
            rand_spec: dict[str, list[float]] = {}
            optimal: dict[str, float] = {}
            budget = scale.search.population * (scale.search.ga_steps + 1)
            for sub in subgraphs:
                space = generate_sketch(sub.workload)
                rng = rng_for("ga-pool", sub.workload.key, size)
                pool = sim.latency_batch(
                    lower_batch(space, random_batch(space, rng, budget))
                ).tolist()
                finite = [v for v in pool if math.isfinite(v)]
                idx = rng.choice(len(pool), size=min(size, len(pool)), replace=False)
                rand_spec[sub.workload.key] = [pool[int(i)] for i in idx]
                best_lse = min(
                    (v for v in lse_spec[sub.workload.key] if math.isfinite(v)),
                    default=math.inf,
                )
                optimal[sub.workload.key] = min(min(finite), best_lse)
            for k in ks:
                out["scores"][f"{net}/size{size}/GA@{k}"] = best_k_score(
                    rand_spec, optimal, weights, k=k
                )
                out["scores"][f"{net}/size{size}/LSE@{k}"] = best_k_score(
                    lse_spec, optimal, weights, k=k
                )
    return out


def topk_comparison(
    scale: str | Scale = "lite",
    devices: tuple[str, ...] = ("t4", "k80"),
    networks: tuple[str, ...] = TEST_NETWORKS,
    train_networks: tuple[str, ...] = TRAIN_NETWORKS,
    seed: int = 0,
) -> dict:
    """Table 11: Top-1 / Top-5 of TenSetMLP vs TLP vs PaCM.

    As in the paper (Section 6.5), models train on a TenSet corpus that
    *excludes* the five test networks and are evaluated on the test
    networks' subgraphs — a cross-task generalization measurement.
    """
    scale = get_scale(scale)
    out: dict = {"scale": scale.name, "scores": {}}
    for device in devices:
        train_set = tenset_dataset(
            device,
            networks=train_networks,
            schedules_per_task=scale.dataset_schedules,
            tasks_per_network=scale.tasks_per_network,
            seed=seed,
        )
        test_set = tenset_dataset(
            device,
            networks=networks,
            schedules_per_task=scale.dataset_schedules,
            tasks_per_network=scale.tasks_per_network,
            seed=seed + 1,
        )
        models = {
            "tensetmlp": TenSetMLP(seed=seed),
            "tlp": TLPModel(seed=seed),
            "pacm": PaCM(seed=seed),
        }
        out["scores"][device] = {}
        for name, model in models.items():
            model.fit(
                *train_set.training_data(model),
                train=scale.offline_train,
                rng=make_rng(seed),
            )
            out["scores"][device][name] = {
                "top1": top_k_score(model, test_set, k=1),
                "top5": top_k_score(model, test_set, k=5),
            }
    return out


def topk_vs_datasize(
    scale: str | Scale = "lite",
    device: str = "t4",
    fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 1.0),
    networks: tuple[str, ...] = TEST_NETWORKS,
    seed: int = 0,
) -> dict:
    """Figure 15: Top-1 vs training-set size.

    PaCM's dataflow features converge with little data; TLP's sparse
    one-hots need the most (the paper's data-efficiency claim).
    """
    scale = get_scale(scale)
    train_set = tenset_dataset(
        device,
        networks=TRAIN_NETWORKS,
        schedules_per_task=scale.dataset_schedules,
        tasks_per_network=scale.tasks_per_network,
        seed=seed,
    )
    test_set = tenset_dataset(
        device,
        networks=networks,
        schedules_per_task=scale.dataset_schedules,
        tasks_per_network=scale.tasks_per_network,
        seed=seed + 1,
    )
    out: dict = {"scale": scale.name, "curves": {}}
    for name, factory in (
        ("tensetmlp", TenSetMLP),
        ("tlp", TLPModel),
        ("pacm", PaCM),
    ):
        curve = []
        for frac in fractions:
            subset = train_set.subsample(int(len(train_set) * frac), seed=seed)
            model = factory(seed=seed)
            model.fit(
                *subset.training_data(model),
                train=scale.offline_train,
                rng=make_rng(seed),
            )
            curve.append([len(subset), top_k_score(model, test_set, k=1)])
        out["curves"][name] = curve
    return out
