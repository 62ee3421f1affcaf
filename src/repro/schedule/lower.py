"""Lowered programs: the scalar view of one scheduled candidate.

The :class:`LoweredProgram` is the analogue of TVM's lowered tensor IR
for one candidate: its tile structure and dataflow blocks as fields.
Symbols, features and the device simulator read
:class:`~repro.schedule.batch.CandidateBatch` columns, not programs.

The tile math of the paper's Figures 3 / 4 lives once, in
:func:`repro.schedule.batch.lower_batch`; a program is one row of the
:class:`~repro.schedule.batch.CandidateBatch` it returns
(:meth:`~repro.schedule.batch.CandidateBatch.program` unpacks it) and
:func:`lower` is row 0 of a one-row batch.  A program keeps that row as
:attr:`LoweredProgram.row`, so code holding one program passes that
row to the batch functions instead of packing the program again.
``tests/fixtures/lowering_golden.json`` holds what the former
per-program implementation produced; both entry points are compared to
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.ir.ops import Workload
from repro.obs import LOWERED
from repro.schedule.space import ScheduleConfig, ScheduleSpace

if TYPE_CHECKING:  # batch.py imports this module's dataclasses
    from repro.schedule.batch import CandidateBatch


def note_lowered(n: int) -> None:
    """Record that ``n`` rows were lowered (lowering-volume stats).

    Backed by the ``repro_lowered_rows_total`` counter in the
    :mod:`repro.obs` registry.  Its one caller is
    :func:`repro.schedule.batch.lower_batch`, which reports each call's
    row count (1 for a scalar :func:`lower`; an unpacked or re-taken
    row is not a lowering), so benchmarks, CI smoke checks, and ``GET
    /metrics`` all read the same monotonic total.
    """
    LOWERED.inc(n)


def lowered_count() -> int:
    """Programs lowered so far in this process (never resets)."""
    return int(LOWERED.value)


# Memory levels (paper Table 2): L0 = registers, L1 = shared, L2 = global.
L0, L1, L2 = 0, 1, 2
FRAGMENT = 3  # TensorCore fragment registers (shared -> fragment dataflow)


@dataclass(frozen=True)
class DataflowBlock:
    """One data-movement block of the multi-tiling pattern (paper Fig. 4).

    Attributes are raw quantities; :mod:`repro.features.dataflow` turns
    them into the 23-dimensional embedding vectors.
    """

    kind: str  # init | load | compute | store | stream | fragment
    src_level: int
    dst_level: int
    traffic_elems: float  # total elements moved across the boundary
    alloc_elems: float  # destination allocation (per thread or per block)
    reuse: float  # average reads per element at the destination
    innermost_span: int  # contiguous span of the source access
    compute_ops: float  # FLOPs attributed to this block
    vector: int
    dtype_bytes: int


@dataclass(frozen=True)
class LoweredProgram:
    """Tile structure of one scheduled program.

    All element counts are in *elements* (multiply by ``dtype_bytes``
    for bytes).  ``reg_elems`` / ``smem_elems`` / ``threads`` /
    ``traffic_elems`` / ``grid`` / ``trans_span`` / ``flops`` /
    ``thread_compute`` correspond to symbols S1/S3/S4/S5/S6/S7/S8/S2;
    ``tc_align`` is S9.
    """

    workload: Workload
    config: ScheduleConfig
    tensorcore: bool
    # grid / block structure
    n_blocks: int
    threads_per_block: int
    vthreads: int
    # register level (L0)
    acc_regs: int
    reg_elems: int  # S1
    thread_compute: float  # S2
    # shared level (L1)
    smem_elems: int  # S3
    # global level (L2)
    traffic_elems: float  # S5 (loads + partial-sum stores)
    grid: int  # S6 (== n_blocks)
    trans_span: int  # S7 (worst innermost contiguous span)
    flops: float  # S8
    # S9: fraction of issued WMMA lanes doing useful work (1.0 off TensorCores)
    tc_align: float
    # annotations
    unroll: int
    vector: int
    splitk: int
    # dataflow blocks for PaCM features
    blocks: tuple[DataflowBlock, ...] = field(default_factory=tuple)
    # the one-row batch this program was unpacked from (not part of its identity)
    row: "CandidateBatch | None" = field(default=None, compare=False, repr=False)

    @property
    def smem_bytes(self) -> int:
        """Shared memory per block in bytes."""
        return self.smem_elems * self.workload.dtype_bytes


def lower(space: ScheduleSpace, config: ScheduleConfig) -> LoweredProgram:
    """Lower one schedule point: row 0 of a one-row ``lower_batch``.

    Raises :class:`~repro.errors.ScheduleError` when the config lies
    outside the space.  Callers that hold many configs should lower them
    in one batch instead — a one-row batch pays the whole fixed cost.
    """
    # call-time: batch.py imports this module's dataclasses
    from repro.schedule.batch import lower_batch

    return lower_batch(space, [config]).program(0)
