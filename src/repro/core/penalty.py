"""Hardware-aware penalty terms (paper Section 4.1).

Six penalties P_{l_i,*} translate the symbols into utilization factors
of the device's theoretical peaks, following the paper's formulas
verbatim:

* ``P_l0_m = min(m_l0 / S1, 1)``           — register over-allocation
* ``P_l0_c = 1 + S2 / S1``                 — compute-to-memory ratio
* ``P_l1_m = min(m_l1 / S3, 1)``           — shared-memory capacity
* ``P_l1_c = sch / (ceil(sch/pu_l1)*pu_l1)`` with ``sch = ceil(S4/n_l1)``
                                           — warp-scheduler alignment
* ``alpha_l1 = S4 / (sch * n_l1)``         — partial-warp waste
* ``P_l2_c = S6 / (ceil(S6/pu_l2)*pu_l2)`` — SM wave quantization
* ``P_l2_m = S7 / (ceil(S7/n_l2)*n_l2)``   — transaction alignment

TensorCore programs additionally multiply the compute penalties by the
fragment-alignment symbol S9.

Each formula is written once, in numpy ufuncs, over values that are
floats for one program and ``(N,)`` arrays for a batch (see
:class:`~repro.core.symbols.Symbols`); ``tests/fixtures/
draft_golden.json`` pins every term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.symbols import Symbols

if TYPE_CHECKING:  # runtime-free to avoid a core <-> hardware import cycle
    from repro.hardware.device import DeviceSpec


@dataclass(frozen=True)
class Penalties:
    """Penalty terms on one device: floats for one program, one ``(N,)``
    array per term for a batch."""

    p_l0_m: float | np.ndarray
    p_l0_c: float | np.ndarray
    p_l1_m: float | np.ndarray
    p_l1_c: float | np.ndarray
    alpha_l1: float | np.ndarray
    p_l2_c: float | np.ndarray
    p_l2_m: float | np.ndarray
    p_tc: float | np.ndarray = 1.0

    def density(self) -> float | np.ndarray:
        """P_l0_c folded into a (0, 1] utilization factor.

        The paper's ``P_l0_c = 1 + S2/S1`` is unbounded ("the bigger the
        better"); multiplying it into ``U_p = T_p * prod(P)`` directly
        would inflate the peak by orders of magnitude and erase the
        compute term from the ranking.  ``1 - 1/P_l0_c`` preserves its
        monotonicity while acting as a genuine utilization multiplier.
        """
        return 1.0 - 1.0 / self.p_l0_c

    def compute_product(self) -> float | np.ndarray:
        """Product of the compute-side penalties (drives U_p)."""
        return self.density() * self.p_l1_c * self.alpha_l1 * self.p_l2_c * self.p_tc

    def memory_product(self) -> float | np.ndarray:
        """Product of the memory-side penalties (drives U_m)."""
        return self.p_l0_m * self.p_l1_m * self.p_l2_m


def compute_penalties(
    symbols: Symbols, device: DeviceSpec, dtype_bytes: int | np.ndarray = 4
) -> Penalties:
    """Evaluate all penalty terms for symbols on ``device``.

    ``dtype_bytes`` is one width, or one per candidate of a batch.
    """
    s = symbols

    # --- L0 (registers) ---
    m_l0 = float(device.max_regs_per_thread)
    s1 = np.maximum(1.0, s.s1_l0_alloc)
    p_l0_m = np.minimum(m_l0 / s1, 1.0)
    p_l0_c = 1.0 + s.s2_l0_compute / s1

    # --- L1 (shared memory / warps) ---
    m_l1_elems = device.smem_per_block / dtype_bytes
    # S3 = 0 (nothing staged in shared memory) gives min(m_l1 / 1, 1) = 1
    p_l1_m = np.minimum(m_l1_elems / np.maximum(1.0, s.s3_l1_alloc), 1.0)
    n_l1 = device.warp_size
    pu_l1 = device.warp_schedulers
    sch_l1 = np.ceil(s.s4_l1_para / n_l1)
    p_l1_c = sch_l1 / (np.ceil(sch_l1 / pu_l1) * pu_l1)
    alpha_l1 = s.s4_l1_para / (sch_l1 * n_l1)

    # --- L2 (global memory / SMs) ---
    pu_l2 = device.sms
    p_l2_c = s.s6_l2_para / (np.ceil(s.s6_l2_para / pu_l2) * pu_l2)
    n_l2 = device.transaction_elems
    p_l2_m = s.s7_l2_trans / (np.ceil(s.s7_l2_trans / n_l2) * n_l2)

    return Penalties(
        p_l0_m=p_l0_m,
        p_l0_c=p_l0_c,
        p_l1_m=p_l1_m,
        p_l1_c=p_l1_c,
        alpha_l1=alpha_l1,
        p_l2_c=p_l2_c,
        p_l2_m=p_l2_m,
        p_tc=s.s9_tc_align,
    )
