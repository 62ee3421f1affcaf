"""repro — reproduction of Pruner (ASPLOS 2025).

A draft-then-verify tensor-program tuning system with every substrate it
needs: tensor-expression IR, Ansor-style schedule search, a simulated
GPU ground truth, learned cost models, and the paper's baselines.

Quickstart::

    from repro import api
    result = api.tune_network("resnet50", device="a100",
                              method="moa-pruner", rounds=16)

See README.md for the architecture overview and module layout, and
``repro.experiments.paper`` for the paper's figures and tables.
"""

from repro.config import SearchConfig, TrainConfig
from repro.core import (
    LatentScheduleExplorer,
    MomentumAdapter,
    SymbolBasedAnalyzer,
    compute_penalties,
)
from repro.costmodel import GBDTModel, PaCM, TenSetMLP, TLPModel
from repro.hardware import DeviceSpec, GroundTruthSimulator, get_device
from repro.search import AnsorPolicy, PrunerPolicy, Tuner

__version__ = "1.0.0"

__all__ = [
    "SearchConfig",
    "TrainConfig",
    "SymbolBasedAnalyzer",
    "LatentScheduleExplorer",
    "MomentumAdapter",
    "compute_penalties",
    "PaCM",
    "TenSetMLP",
    "TLPModel",
    "GBDTModel",
    "DeviceSpec",
    "get_device",
    "GroundTruthSimulator",
    "Tuner",
    "AnsorPolicy",
    "PrunerPolicy",
    "__version__",
]
