"""Tests for repro.heap — a tuning run keeps its freed heap for reuse."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import api
from repro.search import tuner
from repro.workloads import network_tasks

#: Rounds of eight 512 KiB numpy temporaries, allocated, touched and
#: freed together, as a predict over a drafted set does; prints the
#: minor page faults of the last five rounds.
PROBE = textwrap.dedent(
    """
    import resource, sys
    import numpy as np
    from repro.heap import retain_freed_heap

    if sys.argv[1] == "retain" and not retain_freed_heap():
        print("unsupported")
        raise SystemExit

    def one_round():
        arrays = [np.ones(64 << 10) for _ in range(8)]
        del arrays

    for _ in range(2):
        one_round()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        one_round()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
)


def _faults(mode: str) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for name in [k for k in env if k.startswith("MALLOC_")]:
        del env[name]  # the probe is about the C library's defaults
    out = subprocess.run(
        [sys.executable, "-c", PROBE, mode],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return out.stdout.strip()


def test_freed_temporaries_are_reused_without_page_faults():
    retained = _faults("retain")
    if retained == "unsupported":
        pytest.skip("this C library has no mallopt")
    assert int(retained) < 50  # each round reuses the last round's pages
    # the C library's own limits hand them back and fault them in again
    assert int(_faults("default")) > 1000


def test_a_tuning_run_retains_the_heap(monkeypatch):
    calls = []
    monkeypatch.setattr(tuner, "retain_freed_heap", lambda: calls.append(1))
    api.tune_subgraphs(
        "pruner", network_tasks("bert_tiny", top_k=1), "a100", rounds=1, scale="smoke"
    )
    assert calls == [1]
