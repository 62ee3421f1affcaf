"""Tests for repro.analysis.lockcheck — the runtime lock-order sanitizer.

Unit-tests the recorder and the tracking wrapper in-process, then runs
real pytest subprocesses with ``-p repro.analysis.lockcheck``: a benign
suite must exit 0, and a suite that acquires two locks in the order
*opposite* to a static-graph edge must fail the run even though every
test in it passes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

from repro.analysis.lockcheck import _Recorder, _TrackingLock, _cycle_in

REPO = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# recorder + wrapper units
# ----------------------------------------------------------------------
def test_recorder_observes_nesting_order():
    rec = _Recorder()
    rec.acquiring("A")
    rec.acquiring("B")
    rec.released("B")
    rec.released("A")
    assert rec.snapshot() == {("A", "B"): 1}
    assert rec.violations == []


def test_recorder_flags_reacquire():
    rec = _Recorder()
    rec.acquiring("A")
    rec.acquiring("A")
    assert len(rec.violations) == 1
    assert "re-acquired" in rec.violations[0]


def test_recorder_rolls_back_failed_nonblocking_acquire():
    rec = _Recorder()
    rec.acquiring("A")
    rec.acquiring("B")
    rec.failed_acquire("B")
    rec.acquiring("C")
    rec.released("C")
    rec.released("A")
    snap = rec.snapshot()
    # the failed B acquire still recorded intent (that order was
    # attempted) but C must not appear nested under B
    assert ("A", "C") in snap
    assert ("B", "C") not in snap


def test_recorder_is_per_thread():
    rec = _Recorder()
    rec.acquiring("A")
    done = threading.Event()

    def other():
        rec.acquiring("B")
        rec.released("B")
        done.set()

    t = threading.Thread(target=other)
    t.start()
    t.join()
    assert done.is_set()
    rec.released("A")
    # B was taken on a thread that held nothing: no (A, B) edge
    assert rec.snapshot() == {}


def test_tracking_lock_delegates_and_records():
    rec = _Recorder()
    import repro.analysis.lockcheck as lc

    original = lc.RECORDER
    lc.RECORDER = rec
    try:
        outer = _TrackingLock("outer", threading.Lock())
        inner = _TrackingLock("inner", threading.Lock())
        with outer:
            assert outer.locked()
            with inner:
                pass
        assert not outer.locked()
        busy_raw = threading.Lock()
        busy_raw.acquire()  # "another thread" holds it
        busy = _TrackingLock("busy", busy_raw)
        assert not busy.acquire(blocking=False)
        busy_raw.release()
    finally:
        lc.RECORDER = original
    assert ("outer", "inner") in rec.snapshot()
    assert rec.violations == []


def test_cycle_in():
    assert _cycle_in({("A", "B"), ("B", "C")}) is None
    cycle = _cycle_in({("A", "B"), ("B", "A")})
    assert cycle is not None
    assert cycle[0] == cycle[-1]


# ----------------------------------------------------------------------
# end-to-end pytest subprocesses
# ----------------------------------------------------------------------
def _run_pytest(tmp_path, body: str) -> subprocess.CompletedProcess:
    test_file = tmp_path / "test_order.py"
    test_file.write_text(body)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "repro.analysis.lockcheck",
            str(test_file),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )


def test_benign_suite_passes_lockcheck(tmp_path):
    proc = _run_pytest(
        tmp_path,
        "from repro.obs import MetricsRegistry\n\n\n"
        "def test_registry_then_family_is_the_sanctioned_order():\n"
        "    registry = MetricsRegistry()\n"
        "    family = registry.counter('jobs_total', 'help', labels=('kind',))\n"
        "    with registry._lock:\n"
        "        with family._lock:\n"
        "            pass\n",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no ordering violations" in proc.stdout


def test_opposite_order_fails_the_run(tmp_path):
    # MetricFamily._lock -> MetricsRegistry._lock inverts the static edge
    # obs.registry.MetricsRegistry._lock -> obs.registry.MetricFamily._lock
    # that a metrics scrape takes for real: the union graph has a cycle,
    # so the session must fail even though the test itself passes.
    proc = _run_pytest(
        tmp_path,
        "from repro.obs import MetricsRegistry\n\n\n"
        "def test_family_then_registry_inverts_a_scrape():\n"
        "    registry = MetricsRegistry()\n"
        "    family = registry.counter('jobs_total', 'help', labels=('kind',))\n"
        "    with family._lock:\n"
        "        with registry._lock:\n"
        "            pass\n",
    )
    assert proc.returncode != 0, proc.stdout + proc.stderr
    assert "lock-order cycle" in proc.stdout
    assert "1 passed" in proc.stdout  # the test itself was green


def test_runtime_reacquire_fails_the_run(tmp_path):
    proc = _run_pytest(
        tmp_path,
        "from repro.service.jobs import JobQueue\n\n\n"
        "def test_nested_reacquire_attempt():\n"
        "    q = JobQueue()\n"
        "    with q._lock:\n"
        "        assert not q._lock.acquire(blocking=False)\n",
    )
    assert proc.returncode != 0, proc.stdout + proc.stderr
    assert "re-acquired" in proc.stdout
