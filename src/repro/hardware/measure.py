"""On-device measurement harness (simulated).

Wraps the ground-truth simulator with

* multiplicative log-normal measurement noise (run-to-run jitter),
* simulated wall-clock accounting: every trial costs compile/launch
  overhead plus ``latency * repeats`` seconds on the
  :class:`~repro.timemodel.SimClock` — the "Measurement" row of the
  paper's Table 1.

The one entry point is :meth:`MeasureRunner.measure_batch`, which takes
the lowered :class:`~repro.schedule.batch.CandidateBatch` a search
policy or baseline produces and simulates/noises/charges it as arrays —
one noise draw call, one clock charge.
``tests/test_measure_equivalence.py`` pins it bit for bit against a
per-program reference loop (``Generator.normal(size=k)`` yields the
same stream as ``k`` sequential scalar draws) and a frozen golden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.hardware.device import DeviceSpec
from repro.hardware.simulator import GroundTruthSimulator
from repro.rng import make_rng
from repro.schedule.batch import CandidateBatch
from repro.timemodel import SimClock


@dataclass
class MeasureResultBatch:
    """One round of measured trials, structure-of-arrays.

    ``latency`` includes measurement noise (inf for invalid programs);
    ``batch`` is the measured candidates themselves.
    """

    batch: CandidateBatch
    latency: np.ndarray  # (N,) seconds
    valid: np.ndarray  # (N,) bool

    def __len__(self) -> int:
        return len(self.latency)


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
