"""Pruner core: the paper's primary contribution.

* :mod:`repro.core.symbols`  — hardware-aware symbols S1..S8 (Table 2)
  plus the TensorCore extension symbol (Section 6.4).
* :mod:`repro.core.penalty`  — penalty terms P_{l_i,*} (Section 4.1).
* :mod:`repro.core.analyzer` — Symbol-based Analyzer, the draft model
  (Eq. 1).
* :mod:`repro.core.lse`      — Latent Schedule Explorer (Algorithm 2).
* :mod:`repro.core.moa`      — Momentum online Adaptation (Section 4.3).
"""

from repro.core.symbols import Symbols
from repro.core.penalty import Penalties, compute_penalties
from repro.core.analyzer import SymbolBasedAnalyzer
from repro.core.lse import LatentScheduleExplorer, LSEResult
from repro.core.moa import MomentumAdapter

__all__ = [
    "Symbols",
    "Penalties",
    "compute_penalties",
    "SymbolBasedAnalyzer",
    "LatentScheduleExplorer",
    "LSEResult",
    "MomentumAdapter",
]
