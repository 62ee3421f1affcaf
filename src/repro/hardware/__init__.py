"""Hardware substrate: device specs, the ground-truth simulator, measurement.

Physical GPUs are replaced by :class:`~repro.hardware.simulator.GroundTruthSimulator`,
an analytical latency model with a device-specific learnable residual.
Whether it keeps the paper's phenomena is what ``benchmarks/bench_paper.py``
checks: each figure's and table's shape claim, at the ``lite`` scale.
"""

from repro.hardware.device import DeviceSpec, get_device, list_devices
from repro.hardware.simulator import GroundTruthSimulator
from repro.hardware.measure import MeasureRunner
from repro.hardware.library import LibrarySurrogate

__all__ = [
    "DeviceSpec",
    "get_device",
    "list_devices",
    "GroundTruthSimulator",
    "MeasureRunner",
    "LibrarySurrogate",
]
