"""Shared experiment machinery: scales, runners, caching, reporting."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from repro import api
from repro.config import (
    LITE_SEARCH,
    OFFLINE_TRAIN,
    ONLINE_TRAIN,
    SMOKE_SEARCH,
    SearchConfig,
    TrainConfig,
)
from repro.costmodel import PaCM, TenSetMLP, TLPModel
from repro.errors import ReproError
from repro.ir.partition import SubgraphTask
from repro.search.tuner import TuneResult

RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


@dataclass(frozen=True)
class Scale:
    """Experiment size preset.

    ``full`` restores the paper's settings (2,000 trials, S_spec = 512,
    thousands of explored candidates per round); ``lite`` is the default
    for the benchmark suite; ``smoke`` is for tests.
    """

    name: str
    search: SearchConfig
    rounds: int
    tasks_per_network: int
    dataset_schedules: int
    pretrain_samples: int
    train: TrainConfig
    offline_train: TrainConfig


SCALES: dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        search=SMOKE_SEARCH,
        rounds=6,
        tasks_per_network=2,
        dataset_schedules=60,
        pretrain_samples=60,
        train=TrainConfig(epochs=4),
        offline_train=TrainConfig(epochs=10),
    ),
    "lite": Scale(
        name="lite",
        search=LITE_SEARCH,
        rounds=16,
        tasks_per_network=4,
        dataset_schedules=220,
        pretrain_samples=220,
        train=ONLINE_TRAIN,
        offline_train=TrainConfig(epochs=40),
    ),
    "full": Scale(
        name="full",
        search=SearchConfig(),  # population 512, spec 512 (paper)
        rounds=200,
        tasks_per_network=30,
        dataset_schedules=4000,
        pretrain_samples=1000,
        train=TrainConfig(epochs=8),
        offline_train=OFFLINE_TRAIN,
    ),
}


def get_scale(scale: str | Scale) -> Scale:
    """Resolve a scale preset by name."""
    if isinstance(scale, Scale):
        return scale
    if scale not in SCALES:
        raise ReproError(f"unknown scale {scale!r}; known: {sorted(SCALES)}")
    return SCALES[scale]


# ----------------------------------------------------------------------
# pretrained-parameter cache (disk-backed: shared across test processes)
# ----------------------------------------------------------------------
_MEM_CACHE: dict[str, dict[str, np.ndarray]] = {}

#: Bump when code under :func:`repro.api.pretrain_model` changes what it
#: produces (sampling, features, kernels, optimizer): files of another
#: revision stop being served.  1 = before the key covered the recipe.
PRETRAIN_REVISION = 2


def _cache_path(key: str) -> Path:
    safe = key.replace("/", "_").replace("|", "_").replace("@", "_")
    return RESULTS_DIR / "cache" / f"{safe}.npz"


def pretrained_params(
    model_kind: str,
    device_name: str,
    subgraphs: list[SubgraphTask],
    scale: Scale,
    corpus_tag: str,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Pre-train (or load cached) cost-model parameters.

    ``corpus_tag`` names the corpus so distinct experiments don't share
    stale caches; the cache key also covers model, device, scale and
    what trained the file: sample count, the offline ``TrainConfig`` and
    :data:`PRETRAIN_REVISION`.
    """
    recipe = (scale.pretrain_samples, astuple(scale.offline_train), PRETRAIN_REVISION)
    trained_by = hashlib.sha256(repr(recipe).encode()).hexdigest()[:8]
    key = f"{model_kind}-{device_name}-{corpus_tag}-{scale.name}-s{seed}-{trained_by}"
    if key in _MEM_CACHE:
        return _MEM_CACHE[key]
    path = _cache_path(key)
    if path.exists():
        with np.load(path) as data:
            params = {name: data[name] for name in data.files}
        _MEM_CACHE[key] = params
        return params

    model = {"pacm": PaCM, "mlp": TenSetMLP, "tlp": TLPModel}[model_kind]()
    params = api.pretrain_model(
        model,
        subgraphs,
        device_name,
        samples_per_task=scale.pretrain_samples,
        train=scale.offline_train,
        seed=seed,
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **params)
    _MEM_CACHE[key] = params
    return params


#: cross-platform pre-training platform for MoA (paper: TenSet K80-6M)
MOA_SOURCE_DEVICE = "k80"


def run_tuning(
    method: str,
    subgraphs: list[SubgraphTask],
    device: str,
    scale: Scale,
    corpus_tag: str,
    rounds: int | None = None,
    tensorcore: bool = False,
    seed: int = 0,
) -> TuneResult:
    """Run one tuning method end to end, handling pre-training needs."""
    pretrained = None
    if method in api.PRETRAINED_METHODS:
        # MoA / finetune: cross-platform siamese; offline: target platform.
        source = (
            MOA_SOURCE_DEVICE
            if method in ("moa-pruner", "pruner-finetune")
            else device
        )
        pretrained = pretrained_params(
            api.model_kind(method), source, subgraphs, scale, corpus_tag, seed=seed
        )
    tuner = api.build_tuner(
        method,
        subgraphs,
        device,
        search=scale.search,
        train=scale.train,
        pretrained=pretrained,
        tensorcore=tensorcore,
        seed=seed,
    )
    return tuner.tune(rounds if rounds is not None else scale.rounds)


# ----------------------------------------------------------------------
# reporting helpers
# ----------------------------------------------------------------------
def save_results(name: str, payload: dict) -> Path:
    """Write an experiment summary to benchmarks/results/<name>.json."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=_json_default))
    return path


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return str(value)


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Pretty-print an experiment table to stdout."""
    widths = [
        max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n== {title} ==")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "X"
        if value == 0 or 0.01 <= abs(value) < 10000:
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return f"{value:.3e}"
    return str(value)


def normalized_performance(latencies: dict[str, float]) -> dict[str, float]:
    """Latency dict -> normalized perf (1.0 = fastest; 0 for failures)."""
    finite = [v for v in latencies.values() if math.isfinite(v) and v > 0]
    if not finite:
        return {k: 0.0 for k in latencies}
    best = min(finite)
    return {
        k: (best / v if math.isfinite(v) and v > 0 else 0.0)
        for k, v in latencies.items()
    }


def speedup_to_reach(result_fast: TuneResult, result_slow: TuneResult) -> float:
    """Search-time speedup: slow method's total time over fast method's
    time to first reach the slow method's final latency (Fig. 7 metric)."""
    target = result_slow.final_latency
    t = result_fast.time_to(target)
    if not math.isfinite(t) or t <= 0:
        return float("nan")
    return result_slow.clock.total / t
