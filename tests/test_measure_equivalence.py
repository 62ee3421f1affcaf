"""Equivalence suite: the batched measurement path vs the scalar one.

``GroundTruthSimulator.run_batch`` and ``MeasureRunner.measure_batch``
are the hot measurement path; the scalar ``run`` / ``measure`` entry
points are thin wrappers over one-row (or n-row) batches.  These tests
pin the contract that batching changes *nothing*: latencies, validity,
reason strings, noise draws and clock charges are bit-identical to a
scalar reference loop across devices and workload classes — including
invalid programs, splitK overheads, register spill and TensorCore
fragments.

``run`` is ``run_batch`` of one row, so that comparison alone would pin
the simulator to itself.  ``fixtures/simulator_golden.json`` holds the
latencies :func:`simulator_golden` produced on the last commit that
still carried an independent per-program copy of the simulator math
(``benchmarks/bench_throughput.py::_scalar_simulate``, which agreed with
it to 2.4e-16 relative); the file is data, not a mirror of today's code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.hardware.device import get_device
from repro.hardware.measure import MeasureRunner
from repro.hardware.simulator import (
    REASON_OK,
    GroundTruthSimulator,
)
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower
from repro.schedule.batch import CandidateBatch, lower_batch
from repro.schedule.sampler import random_population
from repro.timemodel import SimClock

WORKLOADS = [
    pytest.param(ops.matmul(256, 256, 256), False, False, id="matmul"),
    pytest.param(ops.matmul(256, 256, 1024), False, True, id="matmul-splitk"),
    pytest.param(ops.conv2d(1, 32, 28, 28, 64, 3), False, False, id="conv2d"),
    pytest.param(
        ops.matmul(128, 128, 128, dtype="float16"), True, True, id="tensorcore"
    ),
    pytest.param(ops.elementwise((64, 128), n_inputs=2), False, False, id="elementwise"),
]

DEVICES = ["a100", "t4", "orin", "k80"]

_RESULT_FIELDS = ("latency", "compute_time", "memory_time", "occupancy")

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "simulator_golden.json"
GOLDEN_ROWS = 24


def _batch_and_progs(wl, tensorcore, splitk, n=50, seed=0):
    space = generate_sketch(wl, tensorcore=tensorcore, allow_splitk=splitk)
    configs = random_population(space, make_rng(seed), n)
    return lower_batch(space, configs), [lower(space, c) for c in configs]


def simulator_golden(device: str) -> dict:
    """Every workload class on one device, as JSON-ready rows.

    Latencies are ``float.hex()`` so the file round-trips exactly.  The
    TensorCore class is left out on k80, where both paths raise
    (``test_tensorcore_on_k80_raises_both_paths``).
    """
    sim = GroundTruthSimulator(get_device(device))
    out = {}
    for param in WORKLOADS:
        wl, tc, sk = param.values
        if tc and device == "k80":
            continue
        batch, _ = _batch_and_progs(wl, tc, sk, n=GOLDEN_ROWS)
        res = sim.run_batch(batch)
        out[param.id] = {
            "latency": [float(x).hex() for x in res.latency],
            "valid": res.valid.tolist(),
            "reason": [res.reason(i) for i in range(len(res))],
        }
    return out


class TestRunBatch:
    @pytest.mark.parametrize("device", DEVICES)
    def test_run_batch_reproduces_frozen_golden(self, device):
        assert simulator_golden(device) == json.loads(GOLDEN_PATH.read_text())[device]

    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("wl,tc,sk", WORKLOADS)
    def test_bit_identical_to_scalar_run(self, wl, tc, sk, device):
        """run_batch == run, field for field, on every device."""
        if tc and device == "k80":
            pytest.skip("no TensorCore path on k80 (covered separately)")
        dev = get_device(device)
        sim = GroundTruthSimulator(dev)
        batch, progs = _batch_and_progs(wl, tc, sk)
        out = sim.run_batch(batch)
        for i, prog in enumerate(progs):
            want = sim.run(prog)
            assert bool(out.valid[i]) == want.valid, f"row {i}"
            assert out.reason(i) == want.reason, f"row {i}"
            for name in _RESULT_FIELDS:
                assert float(getattr(out, name)[i]) == getattr(want, name), (
                    f"row {i}: {name}"
                )

    def test_covers_valid_and_invalid_rows(self):
        """The random population exercises both sides of the validity
        mask on a tight device (k80), so the equivalence above is not
        vacuously about valid rows only."""
        sim = GroundTruthSimulator(get_device("k80"))
        batch, _ = _batch_and_progs(ops.matmul(256, 256, 256), False, False, n=200)
        out = sim.run_batch(batch)
        assert out.valid.any() and (~out.valid).any()
        assert np.isinf(out.latency[~out.valid]).all()
        assert (out.occupancy[~out.valid] == 0.0).all()
        assert (out.reason_code[out.valid] == REASON_OK).all()
        assert all(out.reason(int(i)) for i in np.flatnonzero(~out.valid))

    def test_spill_and_splitk_rows_present(self):
        """Targeted coverage: the equivalence sweep includes register
        spill (reg_elems > reg_cap) and splitK-overhead rows."""
        dev = get_device("t4")
        batch, _ = _batch_and_progs(ops.matmul(256, 256, 1024), False, True, n=200)
        reg_cap = dev.max_regs_per_thread
        assert (batch.reg_elems > reg_cap).any(), "no spill rows sampled"
        assert (batch.splitk > 1).any(), "no splitK rows sampled"

    def test_tensorcore_on_k80_raises_both_paths(self):
        """A TC batch consults tc_peak_flops, which k80 does not have:
        scalar and batched paths must fail identically."""
        sim = GroundTruthSimulator(get_device("k80"))
        batch, progs = _batch_and_progs(
            ops.matmul(128, 128, 128, dtype="float16"), True, True, n=10
        )
        with pytest.raises(DeviceError):
            sim.run(progs[0])
        with pytest.raises(DeviceError):
            sim.run_batch(batch)

    @pytest.mark.parametrize("wl,tc,sk", WORKLOADS)
    def test_from_programs_roundtrip(self, wl, tc, sk, a100_sim):
        """A batch re-packed from materialized programs simulates the
        same as the lower_batch-built one."""
        batch, progs = _batch_and_progs(wl, tc, sk, n=25)
        direct = a100_sim.run_batch(batch)
        packed = a100_sim.run_batch(CandidateBatch.from_programs(progs))
        np.testing.assert_array_equal(direct.latency, packed.latency)
        np.testing.assert_array_equal(direct.valid, packed.valid)

    def test_latency_batch_matches_latency(self, a100_sim, matmul_space):
        configs = random_population(matmul_space, make_rng(3), 30)
        batch = lower_batch(matmul_space, configs)
        got = a100_sim.latency_batch(batch)
        want = [a100_sim.latency(lower(matmul_space, c)) for c in configs]
        assert got.tolist() == want


class TestMeasureBatch:
    def _scalar_reference(self, dev, progs, seed):
        """Vendored scalar measurement loop: per-program simulate, one
        noise draw per valid trial (sequential scalar draws), per-trial
        clock charges — the pre-batching implementation."""
        sim = GroundTruthSimulator(dev)
        rng = make_rng(seed)
        clock = SimClock()
        latencies, valids = [], []
        for prog in progs:
            res = sim.run(prog)
            lat = res.latency
            if res.valid:
                lat = lat * float(np.exp(rng.normal(0.0, 0.015)))
                clock.charge_measurement([lat])
            else:
                clock.charge("measurement", clock.costs.measure_overhead)
            latencies.append(lat)
            valids.append(res.valid)
        return np.array(latencies), np.array(valids), clock

    @pytest.mark.parametrize("device", ["a100", "t4", "k80"])
    @pytest.mark.parametrize("wl,tc,sk", WORKLOADS)
    def test_noise_and_clock_match_scalar_loop(self, wl, tc, sk, device):
        """Same seed -> same noise stream -> identical noised latencies;
        clock totals agree to float-reassociation (charges are summed
        in one call instead of per trial)."""
        if tc and device == "k80":
            pytest.skip("no TensorCore path on k80")
        dev = get_device(device)
        batch, progs = _batch_and_progs(wl, tc, sk)
        clock = SimClock()
        runner = MeasureRunner(dev, clock=clock, rng=make_rng(7))
        out = runner.measure_batch(batch)
        want_lat, want_valid, want_clock = self._scalar_reference(dev, progs, seed=7)
        np.testing.assert_array_equal(out.latency, want_lat)
        np.testing.assert_array_equal(out.valid, want_valid)
        assert clock.total == pytest.approx(want_clock.total, rel=1e-12, abs=0.0)
        assert runner.count == len(progs)

    def test_clock_charge_exact_formula(self, a100):
        """The batched charge equals the cost-model formula exactly."""
        batch, _ = _batch_and_progs(ops.matmul(256, 256, 256), False, False)
        clock = SimClock()
        runner = MeasureRunner(a100, clock=clock, rng=make_rng(11))
        out = runner.measure_batch(batch)
        c = clock.costs
        valid_lat = out.latency[out.valid]
        run_time = sum(
            min(max(lat * c.measure_repeats, c.measure_min_run), c.measure_max_run)
            for lat in valid_lat.tolist()
        )
        expected = (run_time + c.measure_overhead * len(valid_lat)) + (
            len(batch) - len(valid_lat)
        ) * c.measure_overhead
        assert clock.elapsed("measurement") == expected

    def test_scalar_measure_wraps_batch(self, a100, matmul_space):
        """measure(list) is measure_batch + to_results, same RNG use."""
        configs = random_population(matmul_space, make_rng(9), 40)
        progs = [lower(matmul_space, c) for c in configs]
        scalar = MeasureRunner(a100, clock=SimClock(), rng=make_rng(5)).measure(progs)
        batched = MeasureRunner(a100, clock=SimClock(), rng=make_rng(5)).measure_batch(
            lower_batch(matmul_space, configs)
        )
        assert [r.latency for r in scalar] == batched.latency.tolist()
        assert [r.valid for r in scalar] == batched.valid.tolist()
        assert [r.prog.config for r in scalar] == batched.batch.configs.configs()
        np.testing.assert_array_equal(
            batched.throughput(), [r.throughput for r in scalar]
        )

    def test_empty_measure_is_free(self, a100):
        clock = SimClock()
        runner = MeasureRunner(a100, clock=clock)
        assert runner.measure([]) == []
        assert clock.total == 0.0
        assert runner.count == 0

    def test_result_views_round_trip(self, a100, matmul_space):
        configs = random_population(matmul_space, make_rng(13), 10)
        out = MeasureRunner(a100, rng=make_rng(13)).measure_batch(
            lower_batch(matmul_space, configs)
        )
        results = out.to_results()
        assert len(results) == len(out) == 10
        for i, res in enumerate(results):
            single = out.result(i)
            assert single.latency == res.latency
            assert single.valid == res.valid
            assert single.prog.config.key == res.prog.config.key
