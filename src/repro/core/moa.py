"""Momentum online Adaptation (MoA) — paper Section 4.3.

MoA treats a cross-platform pre-trained cost model as a *siamese* model
(same architecture, its own parameters phi_s) and, every tuning round:

1. **Load Param** — re-initialise the target model from phi_s,
2. **online fine-tune** — train the target on the data collected so far,
3. **Momentum update** — fold the fine-tuned target weights phi_t back:
   ``phi_s <- m * phi_s + (1 - m) * phi_t`` with m = 0.99 (as in MoCo),
   requiring no forward/backward pass through the siamese model.

The bidirectional feedback stabilises online training against the small,
biased samples of early rounds.  MoA is model-agnostic: it only needs
``get_params`` / ``set_params`` dictionaries of numpy arrays, so it
applies to any learned cost model (the paper's claim that MoA suits any
search framework with a learned cost model).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.config import MOA_MOMENTUM
from repro.errors import CostModelError

ParamDict = dict[str, np.ndarray]


class SupportsParams(Protocol):
    """Anything with get/set parameter dictionaries (our NN cost models)."""

    def get_params(self) -> ParamDict: ...

    def set_params(self, params: ParamDict) -> None: ...


class MomentumAdapter:
    """Maintains the siamese parameters phi_s and applies MoA updates."""

    def __init__(self, siamese_params: ParamDict, momentum: float = MOA_MOMENTUM) -> None:
        if not 0.0 <= momentum < 1.0:
            raise CostModelError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._phi_s: ParamDict = {k: v.copy() for k, v in siamese_params.items()}

    # ------------------------------------------------------------------
    @property
    def siamese_params(self) -> ParamDict:
        """Copy of the current siamese parameters."""
        return {k: v.copy() for k, v in self._phi_s.items()}

    def load_into(self, target: SupportsParams) -> None:
        """Step 1: initialise the target model from the siamese weights."""
        target.set_params(self.siamese_params)

    def update_from(self, target: SupportsParams) -> None:
        """Step 3: momentum-fold the fine-tuned target back into phi_s."""
        phi_t = target.get_params()
        if set(phi_t) != set(self._phi_s):
            raise CostModelError(
                "target/siamese parameter names differ: "
                f"{sorted(set(phi_t) ^ set(self._phi_s))}"
            )
        m = self.momentum
        for name, value in phi_t.items():
            if value.shape != self._phi_s[name].shape:
                raise CostModelError(
                    f"shape mismatch for {name!r}: "
                    f"{value.shape} vs {self._phi_s[name].shape}"
                )
            self._phi_s[name] = m * self._phi_s[name] + (1.0 - m) * value

    def drift(self, reference: ParamDict) -> float:
        """L2 distance between phi_s and a reference (for tests/diagnostics)."""
        total = 0.0
        for name, value in self._phi_s.items():
            total += float(np.sum((value - reference[name]) ** 2))
        return float(np.sqrt(total))
