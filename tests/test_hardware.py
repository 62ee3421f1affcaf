"""Tests for device specs, the simulator, measurement and the library."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.hardware.device import DeviceSpec, get_device, list_devices
from repro.hardware.library import LibrarySurrogate
from repro.hardware.measure import MeasureRunner
from repro.hardware.simulator import GroundTruthSimulator, residual_features_batch
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower, lower_batch, random_config
from repro.timemodel import MEASUREMENT, SimClock


class TestDeviceSpec:
    def test_all_paper_platforms_present(self):
        for name in ("a100", "titanv", "orin", "t4", "k80"):
            assert get_device(name).name == name

    def test_aliases(self):
        assert get_device("Jetson-Orin").name == "orin"
        assert get_device("TITAN_V").name == "titanv"

    def test_unknown_device_raises(self):
        with pytest.raises(DeviceError):
            get_device("h100")

    def test_tensorcore_peaks(self):
        assert get_device("a100").has_tensorcore
        assert not get_device("k80").has_tensorcore
        with pytest.raises(DeviceError):
            get_device("k80").peak_for(tensorcore=True)

    def test_list_devices_sorted(self):
        assert list_devices() == sorted(list_devices())

    def test_invalid_spec_rejected(self):
        with pytest.raises(DeviceError):
            DeviceSpec(name="bad", sms=0, peak_flops=1.0, peak_bw=1.0)


class TestSimulator:
    def test_deterministic(self, a100_sim, matmul_space, rng):
        prog = lower(matmul_space, random_config(matmul_space, rng))
        assert a100_sim.latency(prog) == a100_sim.latency(prog)

    def test_latency_above_roofline(self, a100, a100_sim, matmul_space):
        """Property: no schedule beats the roofline bound by > residual."""
        rng = make_rng(1)
        wl = matmul_space.workload
        roofline = max(
            wl.flops / a100.peak_flops,
            (wl.input_bytes + wl.output_bytes) / a100.peak_bw,
        )
        for _ in range(60):
            prog = lower(matmul_space, random_config(matmul_space, rng))
            res = a100_sim.run_batch(prog.row)
            if res.valid[0]:
                assert res.latency[0] > roofline * 0.7

    def test_invalid_when_threads_exceed_limit(self, a100_sim):
        from repro.schedule.space import ScheduleConfig

        space = generate_sketch(ops.matmul(4096, 4096, 64))
        cfg = ScheduleConfig.from_map(
            {"i": (1, 64, 1, 1, 64), "j": (1, 64, 1, 64, 1), "k": (1, 1, 64)}
        )
        res = a100_sim.run_batch(lower(space, cfg).row)
        assert not res.valid[0] and math.isinf(res.latency[0])

    def test_devices_disagree_on_ranking(self):
        """The cross-platform gap MoA addresses: rankings differ by device."""
        wl = ops.matmul(512, 512, 512)
        space = generate_sketch(wl)
        rng = make_rng(0)
        progs = [lower(space, random_config(space, rng)) for _ in range(80)]
        sims = [GroundTruthSimulator(get_device(n)) for n in ("a100", "k80")]
        lat_a = [sims[0].latency(p) for p in progs]
        lat_k = [sims[1].latency(p) for p in progs]
        pairs = [(a, k) for a, k in zip(lat_a, lat_k) if math.isfinite(a + k)]
        best_on_a = min(range(len(pairs)), key=lambda i: pairs[i][0])
        best_on_k = min(range(len(pairs)), key=lambda i: pairs[i][1])
        ratio_a = pairs[best_on_k][0] / pairs[best_on_a][0]
        ratio_k = pairs[best_on_a][1] / pairs[best_on_k][1]
        # The best schedule of one platform is suboptimal on the other.
        assert ratio_a > 1.0 or ratio_k > 1.0

    def test_residual_features_shape(self, matmul_space, rng):
        prog = lower(matmul_space, random_config(matmul_space, rng))
        assert residual_features_batch(prog.row).shape == (1, 14)

    def test_bigger_device_is_faster_on_big_op(self):
        wl = ops.matmul(2048, 2048, 2048)
        space = generate_sketch(wl)
        rng = make_rng(4)
        progs = [lower(space, random_config(space, rng)) for _ in range(50)]
        a100 = GroundTruthSimulator(get_device("a100"))
        orin = GroundTruthSimulator(get_device("orin"))
        best_a = min(a100.latency(p) for p in progs)
        best_o = min(orin.latency(p) for p in progs)
        assert best_a < best_o


class TestMeasureRunner:
    def test_noise_is_small_and_multiplicative(self, a100, matmul_space, rng):
        runner = MeasureRunner(a100, noise_sigma=0.02, rng=make_rng(0))
        prog = lower(matmul_space, random_config(matmul_space, rng))
        true = runner.simulator.latency(prog)
        results = runner.measure_batch(prog.row.take([0] * 20))
        assert np.all(np.abs(results.latency / true - 1.0) < 0.15)

    def test_charges_measurement_time(self, a100, matmul_space, rng):
        clock = SimClock()
        runner = MeasureRunner(a100, clock=clock)
        prog = lower(matmul_space, random_config(matmul_space, rng))
        runner.measure_batch(prog.row.take([0] * 5))
        assert clock.elapsed(MEASUREMENT) > 0
        assert runner.count == 5

    def test_invalid_program_measures_inf(self, a100):
        from repro.schedule.space import ScheduleConfig

        space = generate_sketch(ops.matmul(4096, 4096, 64))
        cfg = ScheduleConfig.from_map(
            {"i": (1, 64, 1, 1, 64), "j": (1, 64, 1, 64, 1), "k": (1, 1, 64)}
        )
        runner = MeasureRunner(a100)
        result = runner.measure_batch(lower_batch(space, [cfg]))
        assert not result.valid[0]
        assert result.latency[0] == math.inf


class TestLibrarySurrogate:
    def test_library_beats_average_random_schedule(self, a100):
        wl = ops.matmul(512, 512, 512)
        lib = LibrarySurrogate(a100, samples=64, refine_rounds=1)
        space = generate_sketch(wl)
        sim = GroundTruthSimulator(a100)
        rng = make_rng(0)
        lats = []
        for _ in range(50):
            lat = sim.latency(lower(space, random_config(space, rng)))
            if math.isfinite(lat):
                lats.append(lat)
        assert lib.latency(wl) < sum(lats) / len(lats)

    def test_winograd_only_for_3x3_stride1(self, a100):
        lib = LibrarySurrogate(a100, samples=32, refine_rounds=0)
        k3 = lib.kernel(ops.conv2d(1, 32, 28, 28, 32, 3, stride=1))
        k1 = lib.kernel(ops.conv2d(1, 32, 28, 28, 32, 1, stride=1))
        s2 = lib.kernel(ops.conv2d(1, 32, 28, 28, 32, 3, stride=2))
        assert k3.used_winograd
        assert not k1.used_winograd and not s2.used_winograd

    def test_splitk_helps_long_reduction(self, a100):
        """Table 8's phenomenon: long-k / small-parallel ops pick splitK."""
        wl = ops.matmul(64, 64, 8192)
        with_k = LibrarySurrogate(a100, samples=128, refine_rounds=1)
        without = LibrarySurrogate(
            a100, samples=128, refine_rounds=1, allow_splitk=False
        )
        assert with_k.latency(wl) <= without.latency(wl)

    def test_seeded_kernel_selection_does_not_move(self, a100):
        """Values of the commit before ``_search`` lowered its whole
        population as one batch (it called ``lower`` per config)."""
        lib = LibrarySurrogate(a100)
        assert lib.latency(ops.matmul(512, 512, 512)).hex() == "0x1.4a75957a24e65p-15"
        assert (
            lib.latency(ops.conv2d(1, 32, 28, 28, 64, 3)).hex() == "0x1.bc486a0c906c0p-16"
        )
        tc = lib.latency(ops.matmul(256, 256, 256, dtype="float16"), tensorcore=True)
        assert tc.hex() == "0x1.c597caddef0aep-18"
        long_k = lib.kernel(ops.matmul(64, 64, 4096))
        assert (long_k.latency.hex(), long_k.used_splitk) == ("0x1.75ad1d62cbaacp-17", True)

    def test_cache_hit_returns_same_object(self, a100):
        lib = LibrarySurrogate(a100, samples=16, refine_rounds=0)
        wl = ops.matmul(128, 128, 128)
        assert lib.kernel(wl) is lib.kernel(wl)
