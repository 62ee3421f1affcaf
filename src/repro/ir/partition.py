"""Graph partitioning: cut a network DAG into fused subgraph tasks.

Follows the Ansor/Relay fusion recipe the paper inherits (Section 3):

1. every *anchor* operator (matmul / conv / depthwise / ...) greedily
   absorbs its chain of single-consumer element-wise followers as fused
   epilogues (bias-add, batch-norm, relu, residual add, gelu, ...);
2. element-wise ops that cannot be fused form stand-alone tasks (the
   paper notes these are < 3% of TenSet and are zero-padded in PaCM);
3. identical subgraphs are deduplicated into one task with an occurrence
   *weight* — the ``w_i`` used by the task scheduler and by the Top-k
   metric (Eq. 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.dag import Graph, OpNode
from repro.ir.ops import Workload


@dataclass(frozen=True)
class SubgraphTask:
    """A deduplicated tuning task: a fused workload + occurrence count."""

    workload: Workload
    weight: int = 1

    def __str__(self) -> str:
        return f"{self.workload.name} (x{self.weight})"


def partition_graph(graph: Graph) -> list[SubgraphTask]:
    """Partition a network graph into weighted fused subgraph tasks.

    Returns tasks sorted by descending total FLOPs (weight x flops), the
    order tuners conventionally prioritise.
    """
    graph.validate()
    fused_into: dict[int, int] = {}  # elementwise node -> anchor node
    # node -> the nodes that read its output, each once, in graph order
    readers: dict[int, list[OpNode]] = {}
    for node in graph.nodes:
        for src in dict.fromkeys(node.inputs):
            readers.setdefault(src, []).append(node)

    for node in graph.nodes:
        if node.is_elementwise:
            continue
        # Walk the single-consumer element-wise chain below this anchor.
        current = node.node_id
        while True:
            consumers = readers.get(current, ())
            if len(consumers) != 1:
                break
            nxt = consumers[0]
            if not nxt.is_elementwise or nxt.node_id in fused_into:
                break
            # Element-wise ops with multiple non-fused inputs (e.g.
            # residual add) still fuse: the extra operand becomes one
            # more global read, reflected in the epilogue count.
            fused_into[nxt.node_id] = node.node_id
            current = nxt.node_id

    # Build fused workloads.
    epilogues: dict[int, list[str]] = {}
    for ew_id, anchor_id in fused_into.items():
        op_name = graph.node(ew_id).workload.name.split("_")[0]
        epilogues.setdefault(anchor_id, []).append(op_name)

    tasks: dict[str, SubgraphTask] = {}
    for node in graph.nodes:
        if node.node_id in fused_into:
            continue  # absorbed into an anchor
        wl = node.workload
        if node.node_id in epilogues:
            wl = wl.with_fused(*epilogues[node.node_id])
        key = wl.key
        if key in tasks:
            tasks[key] = SubgraphTask(tasks[key].workload, tasks[key].weight + 1)
        else:
            tasks[key] = SubgraphTask(wl, 1)

    ordered = sorted(
        tasks.values(), key=lambda t: t.weight * t.workload.flops, reverse=True
    )
    return ordered


def dedupe_tasks(tasks: list[SubgraphTask]) -> list[SubgraphTask]:
    """Merge tasks with identical workload keys, summing weights."""
    merged: dict[str, SubgraphTask] = {}
    for t in tasks:
        key = t.workload.key
        if key in merged:
            merged[key] = SubgraphTask(merged[key].workload, merged[key].weight + t.weight)
        else:
            merged[key] = t
    return sorted(merged.values(), key=lambda t: t.weight * t.workload.flops, reverse=True)
