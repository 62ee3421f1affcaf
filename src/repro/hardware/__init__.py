"""Hardware substrate: device specs, the ground-truth simulator, measurement.

Physical GPUs are replaced by :class:`~repro.hardware.simulator.GroundTruthSimulator`,
an analytical latency model with a device-specific learnable residual
(see DESIGN.md §1 for why this preserves the paper's phenomena).
"""

from repro.hardware.device import DeviceSpec, get_device, list_devices
from repro.hardware.simulator import GroundTruthSimulator, SimulationResult
from repro.hardware.measure import MeasureRunner
from repro.hardware.library import LibrarySurrogate

__all__ = [
    "DeviceSpec",
    "get_device",
    "list_devices",
    "GroundTruthSimulator",
    "SimulationResult",
    "MeasureRunner",
    "LibrarySurrogate",
]
