"""The paper's figures and tables at the ``lite`` scale, one test per claim.

Every entry of :data:`BENCHES` runs one experiment with its ``lite``
arguments, prints each measured value next to the paper's
(:mod:`repro.experiments.paper`), saves the result under
``benchmarks/results/<saved_as>.json`` and asserts the claim's
qualitative *shape* (who wins, roughly by how much), not absolute
values.  A test is one check function; an experiment runs once per
session however many of its checks are selected::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_paper.py
    PYTHONPATH=src python -m pytest -q benchmarks/bench_paper.py -k "fig07 or table12"

Figure 7 has one check per speedup pair.  A network where the fast
method never reaches the baseline's final latency (listed under
``missed``) makes that pair's geomean NaN, and its check fails.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterator

import pytest

from repro.config import SearchConfig, TrainConfig
from repro.experiments import (
    ablation,
    compilers,
    cost,
    dataset_metrics,
    e2e,
    frameworks,
    paper,
    single_op,
    tensorcore,
)
from repro.experiments.common import SCALES, prune_pretrained_cache, save_results


def _lite_wide(population: int, spec_size: int, rounds: int, **changes):
    """``lite`` with a paper-like exploration width per round, fewer rounds."""
    return dataclasses.replace(
        SCALES["lite"],
        name="lite-wide",
        search=SearchConfig(population=population, ga_steps=4, spec_size=spec_size),
        rounds=rounds,
        **changes,
    )


def fig06(result):
    for net in ("resnet50", "bert_base"):
        for dev in ("a100", "titanv"):
            ansor = result["final_ms"][f"{net}/{dev}/ansor"]
            pruner = result["final_ms"][f"{net}/{dev}/pruner"]
            moa = result["final_ms"][f"{net}/{dev}/moa-pruner"]
            # Online shape: Pruner-family at or below Ansor (10% slack).
            assert min(pruner, moa) <= ansor * 1.10
            # Offline shape: pruner-offline at or below TenSetMLP.
            offline = result["final_ms"][f"{net}/{dev}/pruner-offline"]
            tenset = result["final_ms"][f"{net}/{dev}/tensetmlp"]
            assert offline <= tenset * 1.15


# Shape: every Pruner variant reaches baseline quality faster than the
# baseline's full search (speedup > 1), on every network.
def fig07_pruner_vs_ansor(result):
    g = result["geomean"]
    assert g["pruner_vs_ansor"] > 1.0


def fig07_moa_pruner_vs_ansor(result):
    g = result["geomean"]
    assert g["moa-pruner_vs_ansor"] > 1.0


def fig07_pruner_offline_vs_tensetmlp(result):
    g = result["geomean"]
    assert g["pruner-offline_vs_tensetmlp"] > 1.0


def fig07_pruner_offline_vs_tlp(result):
    g = result["geomean"]
    assert g["pruner-offline_vs_tlp"] > 1.0


def fig08(result):
    # Shape: the documented failures occur...
    assert result["normalized"]["dcgan"]["adatune"] == 0.0  # ConvTranspose2d
    assert result["normalized"]["mobilenet_v2"]["felix"] == 0.0  # depthwise
    assert result["normalized"]["dcgan"]["tlm"] == 0.0  # unseen subgraphs
    # ...and MoA-Pruner is the best or near-best on every network.
    for net, norm in result["normalized"].items():
        assert norm["moa-pruner"] >= 0.85
    # Average speedups over the compilers that succeed are > 1.
    for method, speedup in result["avg_speedup"].items():
        assert speedup > 0.95, (method, speedup)


def fig09(result):
    s = result["avg_speedup"]
    # Shape: Pruner beats PyTorch and Triton on average; TensorRT is the
    # closest competitor (smallest average speedup).
    assert s["pytorch"] > 1.0
    assert s["triton"] > 1.0
    assert s["tensorrt"] < max(s["pytorch"], s["triton"])


def fig10(result):
    for ctx, lat in result["latency_ms"].items():
        # Shape: MoA-Pruner beats the other search-based compilers.
        assert lat["moa-pruner"] <= lat["ansor"] * 1.05
    # The tuning curve exists and improves monotonically at the end.
    curve = result["curves"]["moa-pruner"]
    assert curve[-1][1] <= curve[0][1]


FIG11_CASES = ("M-1", "M-2", "C1-1", "C2-1")


def fig11(result):
    cases = FIG11_CASES
    # Shape: Pruner >= Ansor on most cases; cuBLAS splitK wins M-2.
    wins = sum(
        result["normalized"][c]["pruner"] >= result["normalized"][c]["ansor"] * 0.98
        for c in cases
    )
    assert wins >= len(cases) - 1
    assert result["normalized"]["M-2"]["pytorch"] > 0.9


def fig12(result):
    # Shape: Pruner at parity-or-better with MetaSchedule on average
    # (paper: 1.22x) and never far behind on any case.
    assert result["avg_speedup_vs_metaschedule"] > 0.95
    for key, norm in result["normalized"].items():
        assert norm["pruner"] >= norm["metaschedule"] * 0.85, key


def fig13(result):
    norms = result["normalized"]
    # Shape: Pruner >= MetaSchedule on every op class; attention ops
    # (batched matmuls) are won by a search-based compiler.
    for op, n in norms.items():
        assert n["pruner"] >= n["metaschedule"] * 0.9
    attn = [op for op in norms if op.startswith("matmul_b384")]
    assert attn, "attention ops present"
    assert any(norms[op]["pruner"] >= norms[op]["cudalib"] * 0.95 for op in attn)


def fig14(result):
    s = result["scores"]
    for net in ("resnet50", "bert_tiny"):
        for size in (24, 48):
            # Shape: LSE@k beats random GA@k at every k and size.
            for k in (1, 5):
                assert (
                    s[f"{net}/size{size}/LSE@{k}"]
                    >= s[f"{net}/size{size}/GA@{k}"] - 0.02
                )
            # and LSE@1 stays strong at the smaller spec size.
            assert s[f"{net}/size24/LSE@1"] > 0.6


def fig15(result):
    curves = result["curves"]
    first = {m: c[0][1] for m, c in curves.items()}
    last = {m: c[-1][1] for m, c in curves.items()}
    # Shape: PaCM is at least as data-efficient as TLP at the smallest
    # size and leads on the full corpus; TLP never leads.
    assert first["pacm"] >= first["tlp"] - 0.02
    assert last["pacm"] >= last["tensetmlp"] - 0.03
    assert last["pacm"] >= last["tlp"]


def fig16(result):
    final = result["final_ms"]
    assert final["moa-pruner"] <= final["ansor"] * 1.05
    # Curves are recorded and non-empty for every variant.
    for label, curve in result["curves"].items():
        assert curve, label
        assert curve[-1][1] <= curve[0][1] * 1.001


def table01(result):
    for net, m in result["measured"].items():
        # Shape: exploration is a large minority share of total tuning
        # time (paper: ~40%), training the smallest component.
        assert 0.10 < m["exploration_share"] < 0.75
        assert m["training"] < m["measurement"]


def table05(result):
    for net, r in result["rows"].items():
        # Shape: MoA-Pruner approaches (<=15% off) or beats Ansor with
        # 3x the trials, at a fraction of the compile cost.
        assert r["moa_pruner"]["perf_ms"] <= r["ansor_more_trials"]["perf_ms"] * 1.15
        assert r["moa_pruner"]["cost_min"] < r["ansor_more_trials"]["cost_min"] * 0.6
        # and beats TenSet's transfer at equal trials
        assert r["moa_pruner"]["perf_ms"] <= r["tenset_transfer"]["perf_ms"] * 1.10


def table06(result):
    for case, r in result["rows"].items():
        # Shape: MoA-Pruner lowest; Roller worse than full search.
        assert r["moa-pruner"] <= min(r["pytorch"], r["roller"]) * 1.05
        assert r["roller"] > r["moa-pruner"]


def table07(result):
    # Shape: pruner < ansor, moa <= pruner (paper: 84.1% / 75.3%).
    assert result["ratios"]["pruner"] < 1.0
    assert result["ratios"]["moa-pruner"] <= result["ratios"]["pruner"] * 1.02


def table08(result):
    r = result["rows"]
    # Shape: the library uses splitK exactly where the reduction axis is
    # long relative to the parallel extent (op 4), and that op is among
    # the library's best cases against Pruner (top-2 ratio).
    assert r["4"]["splitk"]
    ratios = {k: v["pruner_us"] / v["cudalib_us"] for k, v in r.items()}
    assert ratios["4"] >= sorted(ratios.values())[-2] - 1e-9
    # Pruner wins the majority of the four ops.
    wins = sum(1 for k in r if r[k]["pruner_us"] <= r[k]["cudalib_us"] * 1.02)
    assert wins >= 2


def table09(result):
    # Shape: Pruner reaches MetaSchedule-quality faster on average.
    assert not math.isnan(result["geomean"])
    assert result["geomean"] > 1.0


def table10(result):
    sizes = sorted(next(iter(result["best1"].values())))
    best1 = result["best1"]
    for size in sizes:
        # Shape: the full penalty set draws the best drafted candidates.
        assert best1["LSE"][size] >= best1["w/o P_c"][size] - 0.02
        assert best1["LSE"][size] >= best1["w/o P_m"][size] - 0.02
    # Best-1 grows (weakly) with spec size for the ablations.
    assert best1["w/o P_m"][sizes[-1]] >= best1["w/o P_m"][sizes[0]] - 1e-9


def table11(result):
    for device, models in result["scores"].items():
        # Shape: PaCM leads on Top-1 and Top-5; Top-5 >= Top-1 always.
        assert models["pacm"]["top1"] >= models["tensetmlp"]["top1"] - 0.03
        assert models["pacm"]["top1"] >= models["tlp"]["top1"] - 0.03
        for s in models.values():
            assert s["top5"] >= s["top1"]


def table12(result):
    r = result["latency_ms"]["resnet50"]
    # Shape: full MoA-Pruner is at or near the best of all variants, and
    # Ansor is the worst.
    best = min(r.values())
    assert r["moa-pruner"] <= best * 1.10
    assert r["ansor"] >= r["moa-pruner"] * 0.98


def table13(result):
    for net, r in result["rows"].items():
        # Shape: with LSE, compile cost is lower at equal-or-better perf.
        assert r["pruner-offline"]["cost_min"] < r["w/o LSE"]["cost_min"]
        assert r["pruner-offline"]["perf_ms"] <= r["w/o LSE"]["perf_ms"] * 1.10


@dataclasses.dataclass(frozen=True)
class Bench:
    """One figure or table: its experiment, ``lite`` arguments and checks."""

    saved_as: str
    experiment: Callable[..., dict]
    args: tuple
    checks: tuple[Callable[[dict], None], ...]


#: keyed as :data:`repro.experiments.paper.PAPER`
BENCHES: dict[str, Bench] = {
    "fig06": Bench(
        "fig06_tuning_curves",
        e2e.tuning_curves,
        ("lite", ("resnet50", "bert_base"), ("a100", "titanv")),
        (fig06,),
    ),
    "fig07": Bench(
        "fig07_search_time",
        e2e.search_time_speedups,
        ("lite", ("resnet50", "bert_tiny", "vit")),
        (
            fig07_pruner_vs_ansor,
            fig07_moa_pruner_vs_ansor,
            fig07_pruner_offline_vs_tensetmlp,
            fig07_pruner_offline_vs_tlp,
        ),
    ),
    "fig08": Bench(
        "fig08_more_compilers",
        compilers.versus_more_compilers,
        ("lite", ("resnet50", "mobilenet_v2", "bert_tiny", "dcgan", "llama")),
        (fig08,),
    ),
    "fig09": Bench(
        "fig09_frameworks",
        frameworks.versus_frameworks,
        ("lite", ("resnet50", "mobilenet_v2", "bert_tiny", "gpt2")),
        (fig09,),
    ),
    "fig10": Bench(
        "fig10_llama_context", frameworks.llama_long_context, ("lite", (1024, 4096)), (fig10,)
    ),
    "fig11": Bench(
        "fig11_single_op",
        single_op.single_operator_bench,
        ("lite", "a100", FIG11_CASES),
        (fig11,),
    ),
    "fig12": Bench(
        "fig12_tensorcore",
        tensorcore.versus_metaschedule,
        ("lite", ("bert_tiny", "gpt2"), (1, 4)),
        (fig12,),
    ),
    "fig13": Bench("fig13_llama_ops", tensorcore.llama_decode_ops, ("lite",), (fig13,)),
    "fig14": Bench(
        "fig14_bestk",
        dataset_metrics.lse_vs_ga_bestk,
        ("lite", "t4", ("resnet50", "bert_tiny"), (24, 48), (1, 5)),
        (fig14,),
    ),
    "fig15": Bench(
        "fig15_data_scaling",
        dataset_metrics.topk_vs_datasize,
        ("lite", "t4", (0.4, 0.7, 1.0)),
        (fig15,),
    ),
    "fig16": Bench("fig16_ablation_curve", ablation.ablation_curve, ("lite",), (fig16,)),
    "table01": Bench(
        "table01_tuning_cost",
        cost.tuning_cost_breakdown,
        (_lite_wide(384, 48, 10, train=TrainConfig(epochs=6)), ("resnet50", "inception_v3")),
        (table01,),
    ),
    "table05": Bench(
        "table05_more_trials",
        e2e.pruner_vs_more_trials,
        ("lite", ("resnet50", "bert_tiny")),
        (table05,),
    ),
    "table06": Bench(
        "table06_roller",
        compilers.versus_roller,
        ("lite", "titanv", (("resnet50", 1), ("bert_large", 1))),
        (table06,),
    ),
    "table07": Bench(
        "table07_compile_time",
        cost.compilation_time,
        (_lite_wide(256, 64, 10), ("resnet50", "bert_base"), "titanv"),
        (table07,),
    ),
    "table08": Bench("table08_gpt2_linears", tensorcore.gpt2_linear_ops, ("lite",), (table08,)),
    "table09": Bench(
        "table09_ms_speedup",
        tensorcore.search_speedup,
        (_lite_wide(256, 64, 12), ("bert_tiny", "gpt2"), (1,)),
        (table09,),
    ),
    "table10": Bench(
        "table10_penalty_ablation",
        dataset_metrics.lse_penalty_ablation,
        ("lite",),
        (table10,),
    ),
    "table11": Bench("table11_topk", dataset_metrics.topk_comparison, ("lite", ("t4",)), (table11,)),
    "table12": Bench(
        "table12_ablation_online",
        ablation.online_ablation,
        ("lite", ("resnet50",)),
        (table12,),
    ),
    "table13": Bench(
        "table13_ablation_offline",
        ablation.offline_ablation,
        ("lite", ("resnet50", "bert_tiny")),
        (table13,),
    ),
}

@pytest.fixture(scope="session")
def results() -> Iterator[dict[str, dict]]:
    """Each experiment's result by key, run once however many checks read it.

    After a session that ran every entry, the pre-training files no
    experiment used (older keys) are deleted; a ``-k`` run deletes none.
    """
    out: dict[str, dict] = {}
    yield out
    if out.keys() == BENCHES.keys():
        for name in prune_pretrained_cache():
            print(f"pruned benchmarks/results/cache/{name}")


@pytest.mark.parametrize(
    "key, check",
    [
        pytest.param(key, check, id=check.__name__)
        for key, bench in BENCHES.items()
        for check in bench.checks
    ],
)
def test_paper_claim(key, check, results, request):
    if key not in results:
        bench = BENCHES[key]
        # pytest-benchmark times the one run
        timer = request.getfixturevalue("benchmark")
        results[key] = timer.pedantic(bench.experiment, bench.args)
        paper.print_against(key, results[key])
        save_results(bench.saved_as, results[key])
    check(results[key])
