"""The paper's numbers, in one place.

:data:`PAPER` maps each figure or table id (``fig07``, ``table12``, ...)
to a :class:`PaperEntry`: where the paper states it and its numbers,
keyed exactly as the matching experiment's result dict, so a number and
its reproduction sit at the same key path
(``PAPER["fig07"].values["geomean"]["pruner_vs_ansor"]`` next to
``search_time_speedups(...)["geomean"]["pruner_vs_ansor"]``).
Experiments return only what they measure; ``benchmarks/bench_paper.py``
prints every result next to its entry with :func:`print_against` and
checks each claim's shape at the ``lite`` scale.

A paper number the experiment has no key for (an average it does not
take) lives in the entry's ``note``, as does any disagreement between
two statements of the same number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import print_table


@dataclass(frozen=True)
class PaperEntry:
    """What the paper reports for one figure or table."""

    source: str
    values: dict = field(default_factory=dict)
    note: str = ""


PAPER: dict[str, PaperEntry] = {
    "fig06": PaperEntry("Fig. 6"),
    "fig07": PaperEntry(
        "Fig. 7 and abstract",
        {
            "geomean": {
                "pruner_vs_ansor": 2.6,
                "moa-pruner_vs_ansor": 4.82,
                "pruner-offline_vs_tensetmlp": 4.75,
                "pruner-offline_vs_tlp": 4.05,
            },
        },
        note="Values are the abstract's. The former fig. 7 bench docstring "
        "quoted 2.7x / 4.18x / 4.67x / 4.05x for the same four pairs.",
    ),
    "fig08": PaperEntry(
        "Fig. 8",
        {"avg_speedup": {"tlm": 1.37, "felix": 1.85, "adatune": 2.77}},
    ),
    "fig09": PaperEntry(
        "Fig. 9",
        {"avg_speedup": {"pytorch": 1.95, "triton": 2.27, "tensorrt": 1.21}},
    ),
    "fig10": PaperEntry(
        "Fig. 10",
        note="MoA-Pruner averages 1.28x over Ansor and 1.57x over Felix; "
        "the experiment reports per-context latencies, not these averages.",
    ),
    "fig11": PaperEntry("Fig. 11"),
    "fig12": PaperEntry(
        "Fig. 12 (§6.4)",
        {"avg_speedup_vs_metaschedule": 1.22},
        note="Pruner also averages 1.23x over PyTorch and 1.30x over "
        "Triton; the experiment takes no average over those two.",
    ),
    "fig13": PaperEntry("Fig. 13 (§6.4)"),
    "fig14": PaperEntry("Fig. 14"),
    "fig15": PaperEntry("Fig. 15"),
    "fig16": PaperEntry("Fig. 16 (§6.6)"),
    "table01": PaperEntry(
        "Table 1 (Ansor, 2,000 trials on Jetson Orin; minutes)",
        {
            "measured": {
                "resnet50": {"exploration": 35.0, "training": 5.4, "measurement": 44.4},
                "detr": {"exploration": 30.31, "training": 5.6, "measurement": 50.61},
                "inception_v3": {"exploration": 41.8, "training": 5.5, "measurement": 49.4},
            },
        },
    ),
    "table05": PaperEntry(
        "Table 5",
        note="MoA-Pruner matches or beats the quality of Ansor with 10k "
        "trials at about 1/8 of its cost; the experiment reports rows per "
        "network, not this ratio.",
    ),
    "table06": PaperEntry(
        "Table 6 (TITAN V; ms)",
        {
            "rows": {
                "resnet50_bs1": {"pytorch": 7.01, "roller": 4.72, "ansor": 2.245, "moa-pruner": 1.886},
                "resnet50_bs128": {"pytorch": 126.02, "roller": 136.15, "ansor": 115.52, "moa-pruner": 101.01},
                "bert_large_bs1": {"pytorch": 26.5, "roller": 18.04, "ansor": 21.658, "moa-pruner": 17.533},
            },
        },
    ),
    "table07": PaperEntry(
        "Table 7 (2,000 trials on TITAN V; minutes)",
        {
            "measured": {
                "resnet50": {"ansor": 124.63, "pruner": 102.03, "moa-pruner": 91.67},
                "inception_v3": {"ansor": 123.15, "pruner": 96.57, "moa-pruner": 90.08},
                "vit": {"ansor": 99.38, "pruner": 93.47, "moa-pruner": 82.27},
                "deeplabv3_r50": {"ansor": 120.4, "pruner": 100.92, "moa-pruner": 91.25},
                "bert_base": {"ansor": 117.35, "pruner": 102.95, "moa-pruner": 89.35},
            },
            "ratios": {"pruner": 0.841, "moa-pruner": 0.753},
        },
        note="The five networks' minutes sum to ratios of 0.848 (pruner) "
        "and 0.760 (moa-pruner), not the 0.841 / 0.753 that the "
        "experiment's and the former bench's docstrings quoted.",
    ),
    "table08": PaperEntry(
        "Table 8 (§6.4; GPT-2 linears, A100 TensorCore, bs 1, ctx 128; us)",
        {
            "rows": {
                "1": {"cudalib_us": 13.17, "splitk": False, "pruner_us": 11.63},
                "2": {"cudalib_us": 10.96, "splitk": True, "pruner_us": 9.53},
                "3": {"cudalib_us": 14.01, "splitk": False, "pruner_us": 12.84},
                "4": {"cudalib_us": 18.96, "splitk": True, "pruner_us": 23.46},
            },
        },
    ),
    "table09": PaperEntry("Table 9 (§6.4)", {"geomean": 4.08}),
    "table10": PaperEntry(
        "Table 10 (Best-1 of S_spec on TenSet T4)",
        {
            "best1": {
                "w/o P_c": {50: 0.685, 128: 0.783, 256: 0.842, 512: 0.880},
                "w/o P_m": {50: 0.757, 128: 0.838, 256: 0.886, 512: 0.930},
                "LSE": {50: 0.914, 128: 0.968, 256: 0.986, 512: 0.995},
            },
        },
        note="At lite the experiment drafts sets about a quarter of the "
        "paper's sizes (12 / 24 / 48 / 96); full restores 50 / 128 / 256 / 512.",
    ),
    "table11": PaperEntry(
        "Table 11 (§6.5)",
        {
            "scores": {
                "t4": {
                    "tensetmlp": {"top1": 0.859, "top5": 0.941},
                    "tlp": {"top1": 0.862, "top5": 0.935},
                    "pacm": {"top1": 0.892, "top5": 0.962},
                },
                "k80": {
                    "tensetmlp": {"top1": 0.878, "top5": 0.958},
                    "tlp": {"top1": 0.880, "top5": 0.947},
                    "pacm": {"top1": 0.897, "top5": 0.969},
                },
            },
        },
    ),
    "table12": PaperEntry(
        "Table 12 (§6.6; online tuning latency, ms)",
        {
            "latency_ms": {
                "resnet50": {
                    "ansor": 2.019,
                    "w/o LSE": 1.995,
                    "w/o S.F.": 1.863,
                    "w/o T.D.F": 1.930,
                    "w/o MoA": 1.828,
                    "w/ O-F": 1.812,
                    "moa-pruner": 1.782,
                },
            },
        },
    ),
    "table13": PaperEntry(
        "Table 13 (§6.6)",
        {
            "rows": {
                "resnet50": {
                    "w/o LSE": {"perf_ms": 1.491, "cost_min": 111},
                    "pruner-offline": {"perf_ms": 1.444, "cost_min": 89},
                },
                "inception_v3": {
                    "w/o LSE": {"perf_ms": 2.831, "cost_min": 113},
                    "pruner-offline": {"perf_ms": 2.687, "cost_min": 91},
                },
                "bert_base": {
                    "w/o LSE": {"perf_ms": 3.88, "cost_min": 115},
                    "pruner-offline": {"perf_ms": 3.639, "cost_min": 96},
                },
                "bert_tiny": {
                    "w/o LSE": {"perf_ms": 1.432, "cost_min": 112},
                    "pruner-offline": {"perf_ms": 1.326, "cost_min": 91},
                },
            },
        },
    ),
}


def _leaves(tree, path: str = ""):
    """``(key path, value)`` for every non-dict value of a nested dict."""
    for key, value in tree.items():
        at = f"{path}: {key}" if path else str(key)
        if isinstance(value, dict):
            yield from _leaves(value, at)
        else:
            yield at, value


def print_against(key: str, result: dict) -> None:
    """Print every value of ``result`` next to the paper's at its key path.

    Paper values the result has no key for close the table, measured
    ``-``.
    """
    entry = PAPER[key]
    measured = dict(_leaves(result))
    paper = dict(_leaves(entry.values))
    rows = [[at, value, paper.get(at, "")] for at, value in measured.items()]
    rows += [[at, "-", value] for at, value in paper.items() if at not in measured]
    print_table(f"{entry.source}: {key}", ["result", "measured", "paper"], rows)
    if entry.note:
        print(f"note: {entry.note}")
