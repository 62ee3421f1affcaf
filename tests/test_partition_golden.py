"""Every registered network's task list against a frozen copy.

``fixtures/partition_golden.json`` was written by :func:`partition_golden`
on the last commit whose ``partition_graph`` found an anchor's readers by
scanning every node of the graph (``Graph.consumers``) at each step of
the fused chain.  For each network it holds ``network_tasks(name)`` at
the default batch as ``[str(task), weight, workload key]`` rows, in the
order returned: the fused epilogue count sits in the key, so a chain
that fused one op more or fewer fails even where the name does not.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.workloads import list_networks, network_tasks

FIXTURE = Path(__file__).parent / "fixtures" / "partition_golden.json"


def partition_case(name: str) -> list[list]:
    return [[str(task), task.weight, task.workload.key] for task in network_tasks(name)]


def partition_golden() -> dict:
    return {name: partition_case(name) for name in list_networks()}


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", list_networks())
def test_tasks_match_the_frozen_list(name, frozen):
    assert partition_case(name) == frozen[name]


def test_frozen_file_covers_every_registered_network(frozen):
    assert sorted(frozen) == list_networks()


if __name__ == "__main__":
    # Rewrites the frozen file from today's partitioner: only for a
    # deliberate change of how graphs are cut into tasks.
    FIXTURE.write_text(json.dumps(partition_golden(), indent=1) + "\n")
