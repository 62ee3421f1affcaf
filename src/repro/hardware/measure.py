"""On-device measurement harness (simulated).

Wraps the ground-truth simulator with

* multiplicative log-normal measurement noise (run-to-run jitter),
* simulated wall-clock accounting: every trial costs compile/launch
  overhead plus ``latency * repeats`` seconds on the
  :class:`~repro.timemodel.SimClock` — the "Measurement" row of the
  paper's Table 1.

The hot path is :meth:`MeasureRunner.measure_batch`, which takes the
already-packed :class:`~repro.schedule.batch.CandidateBatch` the search
policies produce and simulates/noises/charges it as arrays — one noise
draw call, one clock charge.  :meth:`MeasureRunner.measure` packs its
program list into a batch and calls it, so there is one implementation;
``tests/test_measure_equivalence.py`` pins it bit for bit against a
per-program reference loop (``Generator.normal(size=k)`` yields the
same stream as ``k`` sequential scalar draws) and a frozen golden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.hardware.device import DeviceSpec
from repro.hardware.simulator import GroundTruthSimulator
from repro.rng import make_rng
from repro.schedule.batch import CandidateBatch
from repro.schedule.lower import LoweredProgram
from repro.timemodel import SimClock


@dataclass(frozen=True)
class MeasureResult:
    """One measured trial."""

    prog: LoweredProgram
    latency: float  # seconds, noise included; inf for invalid programs
    valid: bool

    @property
    def throughput(self) -> float:
        """FLOP/s achieved (0 for invalid programs)."""
        if not self.valid or not math.isfinite(self.latency):
            return 0.0
        return self.prog.flops / self.latency


@dataclass
class MeasureResultBatch:
    """One round of measured trials, structure-of-arrays.

    ``latency`` includes measurement noise (inf for invalid programs);
    ``batch`` is the measured candidates themselves, so consumers can
    materialize :class:`~repro.schedule.lower.LoweredProgram` objects
    for exactly the rows they keep.
    """

    batch: CandidateBatch
    latency: np.ndarray  # (N,) seconds
    valid: np.ndarray  # (N,) bool

    def __len__(self) -> int:
        return len(self.latency)

    def throughput(self) -> np.ndarray:
        """FLOP/s achieved per trial (0 for invalid programs)."""
        out = np.zeros(len(self), dtype=np.float64)
        ok = self.valid & np.isfinite(self.latency)
        out[ok] = self.batch.flops[ok] / self.latency[ok]
        return out

    def result(self, i: int) -> MeasureResult:
        """Scalar :class:`MeasureResult` view of trial ``i``."""
        return MeasureResult(
            prog=self.batch.program(i),
            latency=float(self.latency[i]),
            valid=bool(self.valid[i]),
        )

    def to_results(self) -> list[MeasureResult]:
        """Materialize every trial as a scalar :class:`MeasureResult`."""
        return [self.result(i) for i in range(len(self))]


class MeasureRunner:
    """Measures programs on a simulated device, charging simulated time."""

    def __init__(
        self,
        device: DeviceSpec,
        clock: SimClock | None = None,
        noise_sigma: float = 0.015,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.device = device
        self.simulator = GroundTruthSimulator(device)
        self.clock = clock if clock is not None else SimClock()
        self.noise_sigma = noise_sigma
        self.rng = rng if rng is not None else make_rng(0)
        self.count = 0  # total trials measured

    def measure_batch(self, batch: CandidateBatch) -> MeasureResultBatch:
        """Measure a packed candidate batch (one 'round' of trials)."""
        n = len(batch)
        sim = self.simulator.run_batch(batch)
        latency = sim.latency.copy()  # already inf for invalid rows
        valid_idx = np.flatnonzero(sim.valid)
        if len(valid_idx):
            noise = np.exp(self.rng.normal(0.0, self.noise_sigma, size=len(valid_idx)))
            latency[valid_idx] = latency[valid_idx] * noise
        # Invalid programs still cost compile overhead (the harness
        # discovers the failure); valid ones cost run time on top.
        self.clock.charge_measurement(latency[valid_idx].tolist())
        if n > len(valid_idx):
            self.clock.charge(
                "measurement",
                (n - len(valid_idx)) * self.clock.costs.measure_overhead,
            )
        self.count += n
        obs.MEASURED.inc(n)
        return MeasureResultBatch(batch=batch, latency=latency, valid=sim.valid)

    def measure(self, progs: list[LoweredProgram]) -> list[MeasureResult]:
        """Measure a list of programs (wrapper over :meth:`measure_batch`)."""
        if not progs:
            return []
        return self.measure_batch(CandidateBatch.from_programs(progs)).to_results()
