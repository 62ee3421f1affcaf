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

Symbols are pure functions of the lowered candidates; all the products
over tile factors (Figure 3) already happened during lowering.  A
:class:`Symbols` holds one ``(N,)`` column per symbol of a
:class:`~repro.schedule.batch.CandidateBatch` (one program is a one-row
batch), and the penalty and latency formulas built on it are written
once, over columns.  ``tests/fixtures/draft_golden.json`` pins the
values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.schedule.batch import CandidateBatch


@dataclass(frozen=True)
class Symbols:
    """The S1..S8 (+S9) symbol vector: one ``(N,)`` column per symbol of
    a candidate batch."""

    s1_l0_alloc: np.ndarray
    s2_l0_compute: np.ndarray
    s3_l1_alloc: np.ndarray
    s4_l1_para: np.ndarray
    s5_l2_traffic: np.ndarray
    s6_l2_para: np.ndarray
    s7_l2_trans: np.ndarray
    s8_l2_compute: np.ndarray
    s9_tc_align: np.ndarray  # 1.0 = perfectly fragment-aligned / not TC


def extract_symbols_batch(batch: CandidateBatch) -> Symbols:
    """The symbol columns of a :class:`CandidateBatch`.

    Pure array views — lowering already materialized every product over
    tile factors, so this is only dtype promotion to float64.
    """
    return Symbols(
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
