"""Lowering: (workload, config) -> tile structure + dataflow blocks.

The :class:`LoweredProgram` is the analogue of TVM's lowered tensor IR:
it exposes everything downstream consumers need —

* the paper's hardware-aware symbols S1..S8 (:mod:`repro.core.symbols`),
* statement-level and temporal-dataflow features (:mod:`repro.features`),
* the device simulator's inputs (:mod:`repro.hardware.simulator`).

Tile-level conventions follow the paper's Figure 3: spatial factors are
``[f0 block, f1 thread, f2 vthread, f3, f4]`` (I0..I4) and reduction
factors ``[k0, k1, k2]``.  Registers per thread include the vthread
replication (vthreads own private registers in TVM), shared tiles span
the whole thread block, and global traffic counts one shared-tile load
per k0 iteration per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import LoweringError
from repro.ir.ops import Workload
from repro.obs import LOWERED
from repro.schedule.space import WMMA_LANE, ScheduleConfig, ScheduleSpace


def note_lowered(n: int) -> None:
    """Record that ``n`` programs were lowered (memo-effectiveness stats).

    Backed by the ``repro_lowered_rows_total`` counter in the
    :mod:`repro.obs` registry (scalar ``lower`` calls plus batch-lowered
    rows — :mod:`repro.schedule.batch` reports its row counts here), so
    benchmarks, CI smoke checks, and ``GET /metrics`` all read the same
    monotonic total.
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
    tensor: str
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
    :attr:`tc_align` is S9.
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
    # annotations
    unroll: int
    vector: int
    splitk: int
    # dataflow blocks for PaCM features
    blocks: tuple[DataflowBlock, ...] = field(default_factory=tuple)

    @property
    def smem_bytes(self) -> int:
        """Shared memory per block in bytes."""
        return self.smem_elems * self.workload.dtype_bytes

    @property
    def traffic_bytes(self) -> float:
        """Global memory traffic in bytes."""
        return self.traffic_elems * self.workload.dtype_bytes

    @property
    def tc_align(self) -> float:
        """S9: fraction of issued WMMA lanes doing useful work.

        Thread tiles that are exact multiples of the 16-wide fragment edge
        score 1.0; ragged tiles waste fragment lanes proportionally.
        """
        if not self.tensorcore:
            return 1.0
        tile = self.config.tile_map
        align = 1.0
        for dim in self.workload.spatial[-2:]:
            f = tile[dim.name]
            thread_tile = f[2] * f[3] * f[4]
            waves = -(-thread_tile // WMMA_LANE)  # ceil
            align *= thread_tile / (waves * WMMA_LANE)
        return align

    @property
    def key(self) -> str:
        """Stable identity of (workload, schedule)."""
        return f"{self.workload.key}#{self.config.key}"


def lower(space: ScheduleSpace, config: ScheduleConfig) -> LoweredProgram:
    """Lower a schedule point; raises LoweringError on inconsistency."""
    space.validate(config)
    note_lowered(1)
    if space.workload.is_tiled:
        return _lower_tiled(space, config)
    return _lower_flat(space, config)


def _lower_tiled(space: ScheduleSpace, config: ScheduleConfig) -> LoweredProgram:
    wl = space.workload
    tile = config.tile_map
    spatial_axes = [d.name for d in wl.spatial]
    reduction_axes = [d.name for d in wl.reduction]
    splitk = config.splitk

    f0 = {a: tile[a][0] for a in spatial_axes}
    f1 = {a: tile[a][1] for a in spatial_axes}
    f2 = {a: tile[a][2] for a in spatial_axes}
    thread_tile = {a: tile[a][2] * tile[a][3] * tile[a][4] for a in spatial_axes}
    block_tile = {a: tile[a][1] * thread_tile[a] for a in spatial_axes}

    n_blocks = math.prod(f0.values()) * splitk
    threads_per_block = math.prod(f1.values())
    vthreads = math.prod(f2.values())

    # reduction tiling: per-block reduction work is extent / splitk,
    # iterated k0 times over chunks of k1*k2.
    chunk = {r: tile[r][1] * tile[r][2] for r in reduction_axes}
    red_per_block = {
        r: max(1, math.ceil(wl.loop_extents()[r] / splitk)) for r in reduction_axes
    }

    # ----- L0: registers -----
    acc_regs = math.prod(thread_tile.values())
    input_regs: dict[str, int] = {}
    for read in wl.reads:
        touched = read.loops()
        regs = math.prod(thread_tile[a] for a in spatial_axes if a in touched)
        input_regs[read.tensor] = regs
    reg_elems = acc_regs + sum(input_regs.values())  # S1
    thread_compute = acc_regs * math.prod(red_per_block.values())  # S2

    # ----- L1: shared memory tiles -----
    shared_tile_map = dict(block_tile)
    shared_tile_map.update(chunk)
    block_points = math.prod(block_tile.values()) * math.prod(chunk.values())
    shared_tiles: dict[str, int] = {}
    shared_reuse: dict[str, float] = {}
    spans: list[int] = []
    for read in wl.reads:
        fp = read.footprint(shared_tile_map)
        shared_tiles[read.tensor] = fp
        shared_reuse[read.tensor] = block_points / max(1, fp)
        spans.append(read.innermost_span(shared_tile_map))
    smem_elems = sum(shared_tiles.values()) if space.use_shared else 0  # S3

    # ----- L2: global traffic -----
    traffic_tile_map = dict(block_tile)
    traffic_tile_map.update(red_per_block)
    input_traffic: dict[str, float] = {}
    for read in wl.reads:
        per_block = read.footprint(traffic_tile_map)
        input_traffic[read.tensor] = float(per_block) * n_blocks
    store_traffic = float(wl.output_elems) * splitk
    epilogue_reads = float(wl.output_elems) * sum(
        1 for op in wl.fused_ops if op in ("add", "residual")
    )
    traffic_elems = sum(input_traffic.values()) + store_traffic + epilogue_reads  # S5
    grid = n_blocks  # S6
    trans_span = min(spans) if spans else 1  # S7
    flops = wl.flops  # S8

    blocks = _tiled_dataflow_blocks(
        wl,
        config,
        space.tensorcore,
        acc_regs,
        input_regs,
        shared_tiles,
        shared_reuse,
        input_traffic,
        store_traffic,
        threads_per_block,
        spans,
        flops,
    )

    return LoweredProgram(
        workload=wl,
        config=config,
        tensorcore=space.tensorcore,
        n_blocks=n_blocks,
        threads_per_block=threads_per_block,
        vthreads=vthreads,
        acc_regs=acc_regs,
        reg_elems=reg_elems,
        thread_compute=thread_compute,
        smem_elems=smem_elems,
        traffic_elems=traffic_elems,
        grid=grid,
        trans_span=trans_span,
        flops=flops,
        unroll=config.unroll,
        vector=config.vector,
        splitk=splitk,
        blocks=tuple(blocks),
    )


def _tiled_dataflow_blocks(
    wl: Workload,
    config: ScheduleConfig,
    tensorcore: bool,
    acc_regs: int,
    input_regs: dict[str, int],
    shared_tiles: dict[str, int],
    shared_reuse: dict[str, float],
    input_traffic: dict[str, float],
    store_traffic: float,
    threads: int,
    spans: list[int],
    flops: float,
) -> list[DataflowBlock]:
    """The multi-tiling pattern of Figure 4 as a block sequence."""
    bytes_ = wl.dtype_bytes
    vthreads = math.prod(tile[2] for _, tile in config.tiles if len(tile) == 5)
    blocks: list[DataflowBlock] = [
        DataflowBlock(
            kind="init",
            src_level=L0,
            dst_level=L0,
            tensor="acc",
            traffic_elems=0.0,
            alloc_elems=float(acc_regs),
            # reuse slot carries the vthread register-replication factor
            reuse=float(vthreads),
            innermost_span=config.vector,
            compute_ops=0.0,
            vector=config.vector,
            dtype_bytes=bytes_,
        )
    ]
    for read, span in zip(wl.reads, spans):
        tile_elems = shared_tiles[read.tensor]
        traffic = input_traffic[read.tensor]
        reuse = shared_reuse[read.tensor]  # reads per element staged in L1
        blocks.append(
            DataflowBlock(
                kind="load",
                src_level=L2,
                dst_level=L1,
                tensor=read.tensor,
                traffic_elems=traffic,
                alloc_elems=float(tile_elems),
                reuse=float(reuse),
                innermost_span=span,
                compute_ops=0.0,
                vector=config.vector,
                dtype_bytes=bytes_,
            )
        )
    if tensorcore:
        # shared -> WMMA fragment staging (the extra dataflow the paper
        # adds to PaCM for MetaSchedule integration).
        frag_elems = sum(input_regs.values())
        blocks.append(
            DataflowBlock(
                kind="fragment",
                src_level=L1,
                dst_level=FRAGMENT,
                tensor="frag",
                traffic_elems=float(frag_elems) * threads,
                alloc_elems=float(frag_elems),
                reuse=1.0,
                innermost_span=16,
                compute_ops=0.0,
                vector=config.vector,
                dtype_bytes=bytes_,
            )
        )
    operand_regs = sum(input_regs.values())
    blocks.append(
        DataflowBlock(
            kind="compute",
            src_level=FRAGMENT if tensorcore else L1,
            dst_level=L0,
            tensor="acc",
            traffic_elems=float(operand_regs) * threads,
            alloc_elems=float(acc_regs),
            reuse=float(acc_regs) / max(1.0, operand_regs),
            # span slot carries the unroll pipelining depth
            innermost_span=max(1, config.unroll),
            compute_ops=flops,
            vector=config.vector,
            dtype_bytes=bytes_,
        )
    )
    blocks.append(
        DataflowBlock(
            kind="store",
            src_level=L0,
            dst_level=L2,
            tensor="out",
            traffic_elems=store_traffic,
            alloc_elems=float(acc_regs),
            reuse=1.0,
            innermost_span=config.vector,
            compute_ops=float(wl.output_elems) * len(wl.fused_ops),
            vector=config.vector,
            dtype_bytes=bytes_,
        )
    )
    return blocks


def _lower_flat(space: ScheduleSpace, config: ScheduleConfig) -> LoweredProgram:
    """Element-wise / pooling lowering: flat [grid, block] parallelization."""
    wl = space.workload
    tile = config.tile_map
    spatial_axes = [d.name for d in wl.spatial]
    reduction_axes = [d.name for d in wl.reduction]

    n_blocks = math.prod(tile[a][0] for a in spatial_axes)
    threads_per_block = math.prod(tile[a][1] for a in spatial_axes)
    if threads_per_block < 1:
        raise LoweringError(f"flat schedule for {wl.name} has no threads")
    red_points = math.prod(wl.loop_extents()[r] for r in reduction_axes) if reduction_axes else 1

    full = wl.loop_extents()
    input_elems = sum(r.footprint(full) for r in wl.reads)
    traffic = float(input_elems + wl.output_elems)
    last_axis = spatial_axes[-1]
    span = tile[last_axis][1] * config.vector

    blocks = (
        DataflowBlock(
            kind="stream",
            src_level=L2,
            dst_level=L2,
            tensor="x",
            traffic_elems=traffic,
            alloc_elems=float(config.vector),
            reuse=float(red_points),
            innermost_span=span,
            compute_ops=wl.flops,
            vector=config.vector,
            dtype_bytes=wl.dtype_bytes,
        ),
    )
    return LoweredProgram(
        workload=wl,
        config=config,
        tensorcore=False,
        n_blocks=n_blocks,
        threads_per_block=threads_per_block,
        vthreads=1,
        acc_regs=config.vector,
        reg_elems=config.vector * 2,
        thread_compute=float(red_points) * config.vector,
        smem_elems=0,
        traffic_elems=traffic,
        grid=n_blocks,
        trans_span=span,
        flops=wl.flops,
        unroll=config.unroll,
        vector=config.vector,
        splitk=1,
        blocks=blocks,
    )
