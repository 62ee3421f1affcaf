"""Network registry: name -> graph builder -> weighted tuning tasks."""

from __future__ import annotations

from typing import Callable

from repro.errors import WorkloadError
from repro.ir.dag import Graph
from repro.ir.partition import SubgraphTask, partition_graph
from repro.workloads import networks as _n

_REGISTRY: dict[str, Callable[..., Graph]] = {
    "resnet50": _n.resnet50,
    "wide_resnet50": _n.wide_resnet50,
    "resnet3d18": _n.resnet3d18,
    "inception_v3": _n.inception_v3,
    "densenet121": _n.densenet121,
    "mobilenet_v2": _n.mobilenet_v2,
    "dcgan": _n.dcgan,
    "deeplabv3_r50": _n.deeplabv3_r50,
    "vit": _n.vit,
    "detr": _n.detr,
    "bert_base": _n.bert_base,
    "bert_tiny": _n.bert_tiny,
    "bert_large": _n.bert_large,
    "gpt2": _n.gpt2,
    "llama": _n.llama,
    "opt_1_3b": _n.opt_1_3b,
    "mistral_7b": _n.mistral_7b,
}

_ALIASES = {
    "r50": "resnet50",
    "wr50": "wide_resnet50",
    "wr-50": "wide_resnet50",
    "i-v3": "inception_v3",
    "iv3": "inception_v3",
    "d-121": "densenet121",
    "mb-v2": "mobilenet_v2",
    "mbv2": "mobilenet_v2",
    "dv3-r50": "deeplabv3_r50",
    "dl-v3": "deeplabv3_r50",
    "b-base": "bert_base",
    "b-tiny": "bert_tiny",
    "b-large": "bert_large",
    "gpt-2": "gpt2",
    "opt": "opt_1_3b",
    "mistral": "mistral_7b",
    "r3d18": "resnet3d18",
}


def _resolve(name: str) -> str:
    key = name.lower().replace(" ", "")
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise WorkloadError(f"unknown network {name!r}; known: {sorted(_REGISTRY)}")
    return key


def list_networks() -> list[str]:
    """Names of all registered networks."""
    return sorted(_REGISTRY)


def resolve_network(name: str) -> str:
    """Canonical name of a network (aliases resolved); raises
    WorkloadError for unknown names — a cheap validity check for
    callers that want to fail fast without building the graph."""
    return _resolve(name)


def build_network(name: str, batch: int = 1, **kwargs: object) -> Graph:
    """Build the operator graph for a network."""
    return _REGISTRY[_resolve(name)](batch=batch, **kwargs)


def network_tasks(
    name: str,
    batch: int = 1,
    top_k: int | None = None,
    tiled_only: bool = False,
    **kwargs: object,
) -> list[SubgraphTask]:
    """Weighted, deduplicated tuning tasks of a network.

    Parameters
    ----------
    top_k:
        Keep only the ``top_k`` heaviest tasks (weight x FLOPs) — the
        scale-reduction knob the experiment harnesses use.  Must be
        >= 1 (WorkloadError otherwise): a slice by 0 or -1 would name a
        task set no job can tune.
    tiled_only:
        Drop element-wise / pooling tasks (tuners fuse or skip them).
    """
    if top_k is not None and top_k < 1:
        raise WorkloadError(f"top_k must be >= 1, got {top_k}")
    graph = build_network(name, batch=batch, **kwargs)
    tasks = partition_graph(graph)
    if tiled_only:
        tasks = [t for t in tasks if t.workload.is_tiled]
    if top_k is not None:
        tasks = tasks[:top_k]
    return tasks
