"""Hardware-aware symbols (paper Table 2 and Figure 3).

Eight symbols describe a scheduled program's behaviour at the three
memory levels (L0 = registers, L1 = shared, L2 = global):

=======  ==================  =============================================
Symbol   Name                Meaning
=======  ==================  =============================================
S1       L0MemAlloc          register elements per thread (acc + operands)
S2       L0CompCount         compute iterations per thread
S3       L1MemAlloc          shared-memory elements per block
S4       L1ParaInfo          threads per block
S5       L2MemFootprint      total global-memory traffic (elements)
S6       L2ParaInfo          thread blocks in the grid
S7       L2TransDim          innermost contiguous global-access span
S8       L2CompCount         total floating-point operations
=======  ==================  =============================================

For TensorCore programs we add S9 ``TCFragAlign``: how well the
thread-tile maps onto WMMA 16x16x16 fragments (the symbol the paper
introduces when integrating Pruner into MetaSchedule, Section 6.4).

Symbols are pure functions of the :class:`~repro.schedule.lower.LoweredProgram`;
all the products over tile factors (Figure 3) already happened during
lowering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.schedule.batch import CandidateBatch
from repro.schedule.lower import LoweredProgram


@dataclass(frozen=True)
class Symbols:
    """The S1..S8 (+S9) symbol vector of one scheduled program."""

    s1_l0_alloc: float
    s2_l0_compute: float
    s3_l1_alloc: float
    s4_l1_para: float
    s5_l2_traffic: float
    s6_l2_para: float
    s7_l2_trans: float
    s8_l2_compute: float
    s9_tc_align: float = 1.0  # 1.0 = perfectly fragment-aligned / not TC

    def as_tuple(self) -> tuple[float, ...]:
        """Symbols in S1..S9 order."""
        return (
            self.s1_l0_alloc,
            self.s2_l0_compute,
            self.s3_l1_alloc,
            self.s4_l1_para,
            self.s5_l2_traffic,
            self.s6_l2_para,
            self.s7_l2_trans,
            self.s8_l2_compute,
            self.s9_tc_align,
        )


def extract_symbols(prog: LoweredProgram) -> Symbols:
    """Extract the hardware-aware symbol vector from a lowered program."""
    return Symbols(
        s1_l0_alloc=float(prog.reg_elems),
        s2_l0_compute=float(prog.thread_compute),
        s3_l1_alloc=float(prog.smem_elems),
        s4_l1_para=float(prog.threads_per_block),
        s5_l2_traffic=float(prog.traffic_elems),
        s6_l2_para=float(prog.grid),
        s7_l2_trans=float(prog.trans_span),
        s8_l2_compute=float(prog.flops),
        s9_tc_align=prog.tc_align,
    )


@dataclass(frozen=True)
class SymbolsBatch:
    """S1..S9 for a whole candidate batch, one ``(N,)`` array per symbol."""

    s1_l0_alloc: np.ndarray
    s2_l0_compute: np.ndarray
    s3_l1_alloc: np.ndarray
    s4_l1_para: np.ndarray
    s5_l2_traffic: np.ndarray
    s6_l2_para: np.ndarray
    s7_l2_trans: np.ndarray
    s8_l2_compute: np.ndarray
    s9_tc_align: np.ndarray

    def row(self, i: int) -> Symbols:
        """Scalar :class:`Symbols` view of one candidate."""
        return Symbols(
            s1_l0_alloc=float(self.s1_l0_alloc[i]),
            s2_l0_compute=float(self.s2_l0_compute[i]),
            s3_l1_alloc=float(self.s3_l1_alloc[i]),
            s4_l1_para=float(self.s4_l1_para[i]),
            s5_l2_traffic=float(self.s5_l2_traffic[i]),
            s6_l2_para=float(self.s6_l2_para[i]),
            s7_l2_trans=float(self.s7_l2_trans[i]),
            s8_l2_compute=float(self.s8_l2_compute[i]),
            s9_tc_align=float(self.s9_tc_align[i]),
        )


def extract_symbols_batch(batch: CandidateBatch) -> SymbolsBatch:
    """Vectorized :func:`extract_symbols` over a :class:`CandidateBatch`.

    Pure array views — lowering already materialized every product over
    tile factors, so this is only dtype promotion to float64.
    """
    return SymbolsBatch(
        s1_l0_alloc=batch.reg_elems.astype(np.float64),
        s2_l0_compute=batch.thread_compute.astype(np.float64),
        s3_l1_alloc=batch.smem_elems.astype(np.float64),
        s4_l1_para=batch.threads.astype(np.float64),
        s5_l2_traffic=batch.traffic_elems.astype(np.float64),
        s6_l2_para=batch.grid.astype(np.float64),
        s7_l2_trans=batch.trans_span.astype(np.float64),
        s8_l2_compute=batch.flops.astype(np.float64),
        s9_tc_align=batch.tc_align.astype(np.float64),
    )
