"""Network-level operator graphs.

A :class:`Graph` is a DAG of :class:`OpNode` instances, each wrapping a
:class:`~repro.ir.ops.Workload`.  Networks in :mod:`repro.workloads`
are expressed as graphs and then cut into fused subgraph tuning tasks by
:mod:`repro.ir.partition` — the "graph partition" stage in the paper's
Figure 1/2 workflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.ir.ops import Workload


@dataclass
class OpNode:
    """One operator instance in a network graph."""

    node_id: int
    workload: Workload
    inputs: tuple[int, ...] = ()

    @property
    def is_elementwise(self) -> bool:
        """True for pure element-wise ops (fusable into an upstream anchor)."""
        return self.workload.tag == "elementwise"


@dataclass
class Graph:
    """An operator DAG with explicit edges."""

    nodes: list[OpNode] = field(default_factory=list)

    def node(self, node_id: int) -> OpNode:
        """Look up a node by id."""
        return self.nodes[node_id]

    def validate(self) -> None:
        """Check edge references; raise WorkloadError on dangling inputs."""
        ids = {n.node_id for n in self.nodes}
        for n in self.nodes:
            for src in n.inputs:
                if src not in ids:
                    raise WorkloadError(
                        f"node {n.node_id} reads undefined node {src}"
                    )

    def __len__(self) -> int:
        return len(self.nodes)


class GraphBuilder:
    """Incrementally builds a :class:`Graph`.

    Example
    -------
    >>> from repro.ir import ops
    >>> b = GraphBuilder()
    >>> a = b.add(ops.matmul(128, 128, 128))
    >>> r = b.add(ops.elementwise((128, 128), op="relu"), inputs=[a])
    >>> len(b.graph())
    2
    """

    def __init__(self) -> None:
        self._nodes: list[OpNode] = []

    def add(self, workload: Workload, inputs: list[int] | None = None) -> int:
        """Append an operator; returns its node id."""
        node_id = len(self._nodes)
        self._nodes.append(OpNode(node_id, workload, tuple(inputs or ())))
        return node_id

    def graph(self) -> Graph:
        """Finalize and validate the graph."""
        g = Graph(list(self._nodes))
        g.validate()
        return g
