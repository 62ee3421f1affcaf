"""Structure-of-arrays candidate batches (the batched hot path).

The draft stage evaluates thousands of schedules per GA generation and
the verify stage features/scores hundreds more; doing that one Python
object at a time dominates tuning wall-clock.  This module packs
candidates into numpy arrays once and keeps every downstream consumer
(symbols, penalties, features, cost models, search policies) on dense
array math:

* :class:`ConfigBatch` — N schedule configs as a factor tensor
  ``(N, n_axes, MAX_PARTS)`` plus annotation vectors.  The GA operators
  (:mod:`repro.schedule.sampler`, :mod:`repro.schedule.mutate`) produce
  and consume these directly.
* :func:`lower_batch` — the lowering: one :class:`CandidateBatch` with
  packed arrays for threads / grid / smem / registers / traffic / flops
  plus per-dataflow-block arrays.  The only implementation of the tile
  math of the paper's Figures 3 / 4; :func:`repro.schedule.lower.lower`
  is row 0 of a one-row call.
* :meth:`CandidateBatch.program` — unpacks one row into a scalar
  :class:`~repro.schedule.lower.LoweredProgram` (field copies, no
  lowering), for the few candidates that get measured and recorded.
* :meth:`CandidateBatch.from_programs` — the inverse: packs
  :class:`~repro.schedule.lower.LoweredProgram` objects (possibly from
  *different* workloads, e.g. cost-model training data) into the same
  array layout, so the scalar entry points everywhere else are one-row
  doors onto the batch implementations.

Tile-level conventions follow the paper's Figure 3: spatial factors are
``[f0 block, f1 thread, f2 vthread, f3, f4]`` (I0..I4) and reduction
factors ``[k0, k1, k2]``.  Registers per thread include the vthread
replication (vthreads own private registers in TVM), shared tiles span
the whole thread block, and global traffic counts one shared-tile load
per k0 iteration per block.

``tests/fixtures/lowering_golden.json`` pins :func:`lower_batch` to what
the former per-program implementation produced; packing unpacked rows
back (``from_programs`` of ``program(i)``) must reproduce the arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import index

import numpy as np

from repro.cache import register_lru
from repro.errors import ScheduleError
from repro.ir.ops import Workload
from repro.schedule.lower import (
    FRAGMENT,
    L0,
    L1,
    L2,
    DataflowBlock,
    LoweredProgram,
    note_lowered,
)
from repro.schedule.space import WMMA, WMMA_LANE, ScheduleConfig, ScheduleSpace

#: Widest per-axis factor tuple (5-way spatial splits); narrower axes are
#: padded with 1s so products over the full width are exact.
MAX_PARTS = 5

#: Canonical operator-class order for one-hot features.
TAG_ORDER = ("matmul", "conv2d", "depthwise", "conv2d_transpose", "pool", "elementwise")

#: Dataflow-block kind codes, in the one-hot order of
#: :mod:`repro.features.dataflow` (init/load/fragment/compute/store/stream).
BLOCK_KINDS = ("init", "load", "fragment", "compute", "store", "stream")
BK_INIT, BK_LOAD, BK_FRAGMENT, BK_COMPUTE, BK_STORE, BK_STREAM = range(6)
_KIND_CODE = {name: code for code, name in enumerate(BLOCK_KINDS)}

_I64 = np.int64
_F64 = np.float64


# ----------------------------------------------------------------------
# static per-space layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReadPlan:
    """Vectorization plan for one input access pattern.

    ``dims`` holds, per tensor index dimension, the ``(axis positions,
    coefficients)`` arrays of its linear terms, so a footprint over any
    per-axis tile matrix ``T (N, A)`` is a handful of gathers and sums.
    """

    tensor: str
    reg_mask: np.ndarray  # (n_spatial,) bool — spatial axes this read touches
    dims: tuple[tuple[np.ndarray, np.ndarray], ...]

    def spans(self, tiles: np.ndarray) -> np.ndarray:
        """Per-dimension extents over tiles: shape ``(n_dims, N)``."""
        out = np.empty((len(self.dims), tiles.shape[0]), dtype=_I64)
        for d, (pos, coeff) in enumerate(self.dims):
            out[d] = 1 + ((tiles[:, pos] - 1) * coeff).sum(axis=1)
        return out

    def footprint(self, tiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(footprint, innermost span)`` arrays over a tile matrix."""
        spans = self.spans(tiles)
        if not len(self.dims):
            ones = np.ones(tiles.shape[0], dtype=_I64)
            return ones, ones
        return spans.prod(axis=0), spans[-1]


@dataclass(frozen=True)
class SpacePlan:
    """Precomputed static layout of one schedule space."""

    space: ScheduleSpace
    axes: tuple[str, ...]  # split order: spatial first, then reduction
    parts: np.ndarray  # (A,) factor-count per axis
    extents: np.ndarray  # (A,)
    n_spatial: int
    sorted_axis_order: np.ndarray  # axis indices in config.tiles (name) order
    reads: tuple[ReadPlan, ...]
    unroll_options: np.ndarray
    vector_options: np.ndarray
    splitk_options: np.ndarray
    # TensorCore constraint targets (indices into ``axes``; empty if not TC)
    tc_matrix_axes: tuple[int, ...]
    tc_reduction_axis: int  # -1 when absent

    @property
    def n_axes(self) -> int:
        return len(self.axes)

    @property
    def workload(self) -> Workload:
        return self.space.workload


@lru_cache(maxsize=1024)
def space_plan(space: ScheduleSpace) -> SpacePlan:
    """Build (and memoize) the vectorization plan of a schedule space."""
    wl = space.workload
    splits = space.splits
    axes = tuple(s.axis for s in splits)
    pos = {name: i for i, name in enumerate(axes)}
    spatial_axes = [d.name for d in wl.spatial]
    n_spatial = len(space.spatial_splits)

    reads = []
    for read in wl.reads:
        touched = read.loops()
        reg_mask = np.array([a in touched for a in spatial_axes], dtype=bool)
        dims = tuple(
            (
                np.array([pos[name] for name, _ in dim if name in pos], dtype=_I64),
                np.array([c for name, c in dim if name in pos], dtype=_I64),
            )
            for dim in read.index
        )
        reads.append(ReadPlan(tensor=read.tensor, reg_mask=reg_mask, dims=dims))

    tc_matrix: tuple[int, ...] = ()
    tc_red = -1
    if space.tensorcore:
        tc_matrix = tuple(pos[s.axis] for s in space.spatial_splits[-2:])
        if space.reduction_splits:
            tc_red = pos[space.reduction_splits[0].axis]

    return SpacePlan(
        space=space,
        axes=axes,
        parts=np.array([s.parts for s in splits], dtype=_I64),
        extents=np.array([s.extent for s in splits], dtype=_I64),
        n_spatial=n_spatial,
        sorted_axis_order=np.argsort(np.array(axes, dtype=object), kind="stable"),
        reads=tuple(reads),
        unroll_options=np.array(space.unroll_options, dtype=_I64),
        vector_options=np.array(space.vector_options, dtype=_I64),
        splitk_options=np.array(space.splitk_options, dtype=_I64),
        tc_matrix_axes=tc_matrix,
        tc_reduction_axis=tc_red,
    )


register_lru("schedule.batch.space_plan", space_plan)


# ----------------------------------------------------------------------
# ConfigBatch: N configs as a factor tensor
# ----------------------------------------------------------------------
class ConfigBatch:
    """N schedule configurations of one space, structure-of-arrays.

    ``factors`` has shape ``(N, n_axes, MAX_PARTS)`` (axis order =
    ``space.splits``, unused part slots padded with 1) and ``unroll`` /
    ``vector`` / ``splitk`` are ``(N,)`` int vectors.  A candidate's
    identity on the hot path is the raw bytes of its row
    (:meth:`row_keys`); materializing
    :class:`~repro.schedule.space.ScheduleConfig` objects is lazy and
    cached — the GA never needs them; only selected candidates do.
    """

    __slots__ = ("space", "factors", "unroll", "vector", "splitk", "_configs", "_row_keys")

    def __init__(
        self,
        space: ScheduleSpace,
        factors: np.ndarray,
        unroll: np.ndarray,
        vector: np.ndarray,
        splitk: np.ndarray,
    ) -> None:
        self.space = space
        self.factors = factors
        self.unroll = unroll
        self.vector = vector
        self.splitk = splitk
        # None until a config is materialized, so views of batches that
        # never were (every GA generation) build no per-row lists
        self._configs: list[ScheduleConfig | None] | None = None
        self._row_keys: list[bytes] | None = None

    # -- construction --------------------------------------------------
    @classmethod
    def from_configs(
        cls, space: ScheduleSpace, configs: list[ScheduleConfig]
    ) -> "ConfigBatch":
        """Pack config objects into arrays (validating factor counts).

        A factor or annotation that is not an integer (``64.5``, and
        ``64.0`` alike) raises :class:`ScheduleError`: written into an
        int64 array it would be truncated to a config that validates.
        The objects themselves are not kept: measured seeds join every
        GA population, and a batch that holds configs makes each view
        taken of it carry a per-row list.
        """
        plan = space_plan(space)
        n = len(configs)
        factors = np.ones((n, plan.n_axes, MAX_PARTS), dtype=_I64)
        unroll = np.empty(n, dtype=_I64)
        vector = np.empty(n, dtype=_I64)
        splitk = np.empty(n, dtype=_I64)
        parts = plan.parts
        for i, cfg in enumerate(configs):
            tile_map = cfg.tile_map
            if set(tile_map) != set(plan.axes):
                raise ScheduleError(
                    f"config axes {sorted(tile_map)} do not match space axes "
                    f"{sorted(plan.axes)}"
                )
            try:
                for a, name in enumerate(plan.axes):
                    f = tile_map[name]
                    if len(f) != parts[a]:
                        raise ScheduleError(
                            f"axis {name!r}: expected {parts[a]} factors, got {len(f)}"
                        )
                    factors[i, a, : len(f)] = [index(x) for x in f]
                unroll[i] = index(cfg.unroll)
                vector[i] = index(cfg.vector)
                splitk[i] = index(cfg.splitk)
            except TypeError:
                raise ScheduleError(f"config {cfg.key}: non-integer value") from None
        return cls(space, factors, unroll, vector, splitk)

    @classmethod
    def concat(cls, batches: list["ConfigBatch"]) -> "ConfigBatch":
        """Stack batches of the same space (order preserved)."""
        if not batches:
            raise ScheduleError("cannot concatenate zero batches")
        space = batches[0].space
        out = cls(
            space,
            np.concatenate([b.factors for b in batches]),
            np.concatenate([b.unroll for b in batches]),
            np.concatenate([b.vector for b in batches]),
            np.concatenate([b.splitk for b in batches]),
        )
        if any(b._configs is not None for b in batches):
            out._configs = [
                c for b in batches for c in (b._configs or [None] * len(b))
            ]
        return out

    # -- views ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.unroll)

    def take(self, idx: np.ndarray) -> "ConfigBatch":
        """Subset (or reorder) by an index or boolean-mask array."""
        idx = np.asarray(idx)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        out = ConfigBatch(
            self.space,
            self.factors[idx],
            self.unroll[idx],
            self.vector[idx],
            self.splitk[idx],
        )
        if self._configs is not None:
            out._configs = [self._configs[i] for i in idx.tolist()]
        return out

    def slice(self, start: int, stop: int) -> "ConfigBatch":
        """Contiguous view ``[start:stop)`` — no array copies."""
        out = ConfigBatch(
            self.space,
            self.factors[start:stop],
            self.unroll[start:stop],
            self.vector[start:stop],
            self.splitk[start:stop],
        )
        if self._configs is not None:
            out._configs = self._configs[start:stop]
        return out

    def row_ids(self) -> np.ndarray:
        """Opaque per-candidate identity values (for vectorized dedup)."""
        n = len(self)
        flat = np.concatenate(
            [
                self.factors.reshape(n, math.prod(self.factors.shape[1:])),
                self.unroll[:, None],
                self.vector[:, None],
                self.splitk[:, None],
            ],
            axis=1,
        )
        flat = np.ascontiguousarray(flat)
        return flat.view(np.dtype((np.void, flat.dtype.itemsize * flat.shape[1])))[:, 0]

    def row_keys(self) -> list[bytes]:
        """The candidate identity: each row's :meth:`row_ids` bytes (cached).

        Hashable where the void scalars are not, and one-to-one with
        :attr:`ScheduleConfig.key` *within a space* (padding slots are
        always 1) — so everything keyed on it stays keyed per space.
        """
        if self._row_keys is None:
            ids = self.row_ids()
            width = ids.dtype.itemsize
            buf = ids.tobytes()
            self._row_keys = [
                buf[at : at + width] for at in range(0, len(buf), width)
            ]
        return self._row_keys

    def first_rows(self) -> np.ndarray:
        """Index of the first occurrence of each distinct candidate, ascending."""
        _, first = np.unique(self.row_ids(), return_index=True)
        return np.sort(first)

    def unique(self) -> "ConfigBatch":
        """Deduplicate, keeping the first occurrence of each candidate."""
        return self.take(self.first_rows())

    # -- materialization ----------------------------------------------
    def config(self, i: int) -> ScheduleConfig:
        """Materialize the i-th :class:`ScheduleConfig` (cached)."""
        if self._configs is None:
            self._configs = [None] * len(self)
        cached = self._configs[i]
        if cached is not None:
            return cached
        plan = space_plan(self.space)
        tile_map = {
            name: tuple(int(f) for f in self.factors[i, a, : plan.parts[a]])
            for a, name in enumerate(plan.axes)
        }
        cfg = ScheduleConfig.from_map(
            tile_map,
            unroll=int(self.unroll[i]),
            vector=int(self.vector[i]),
            splitk=int(self.splitk[i]),
        )
        self._configs[i] = cfg
        return cfg

    def configs(self) -> list[ScheduleConfig]:
        """Materialize every config (cached)."""
        return [self.config(i) for i in range(len(self))]


def validate_batch(space: ScheduleSpace, batch: ConfigBatch) -> None:
    """Vectorized :meth:`ScheduleSpace.validate` over a whole batch."""
    plan = space_plan(space)
    if (batch.factors < 1).any():
        raise ScheduleError("factors must be >= 1")
    prods = batch.factors.prod(axis=2)
    bad = prods != plan.extents[None, :]
    if bad.any():
        i, a = np.argwhere(bad)[0]
        raise ScheduleError(
            f"axis {plan.axes[a]!r}: prod{tuple(batch.factors[i, a])} != "
            f"extent {plan.extents[a]}"
        )
    for name, values, options in (
        ("unroll", batch.unroll, plan.unroll_options),
        ("vector", batch.vector, plan.vector_options),
        ("splitk", batch.splitk, plan.splitk_options),
    ):
        ok = np.isin(values, options)
        if not ok.all():
            bad_value = values[~ok][0]
            raise ScheduleError(f"{name} {bad_value} not in {tuple(options)}")
    if space.tensorcore:
        bad = ~tensorcore_ok(plan, batch.factors)
        if bad.any():
            raise ScheduleError(
                "tensorcore: thread tile / reduction chunk violates the "
                f"WMMA fragment constraint for candidate {int(np.flatnonzero(bad)[0])}"
            )


def tensorcore_ok(plan: SpacePlan, factors: np.ndarray) -> np.ndarray:
    """Rows whose factors satisfy the WMMA fragment constraints."""
    ok = np.ones(factors.shape[0], dtype=bool)
    for a in plan.tc_matrix_axes:
        thread_tile = factors[:, a, 2] * factors[:, a, 3] * factors[:, a, 4]
        ok &= thread_tile % WMMA_LANE == 0
    if plan.tc_reduction_axis >= 0:
        a = plan.tc_reduction_axis
        chunk = factors[:, a, 1] * factors[:, a, 2]
        ok &= chunk % WMMA == 0
    return ok


# ----------------------------------------------------------------------
# CandidateBatch: lowered programs, structure-of-arrays
# ----------------------------------------------------------------------
@dataclass
class BlockArrays:
    """Dataflow blocks of a batch, packed column-wise.

    ``kind`` / ``src`` / ``dst`` are ``(N, B)`` int arrays (``kind ==
    -1`` marks padding past a program's real blocks); the float arrays
    carry the per-block quantities of
    :class:`~repro.schedule.lower.DataflowBlock`.
    """

    kind: np.ndarray  # (N, B) codes into BLOCK_KINDS, -1 = padding
    src: np.ndarray  # (N, B)
    dst: np.ndarray  # (N, B)
    traffic: np.ndarray  # (N, B) elements
    alloc: np.ndarray  # (N, B) elements
    reuse: np.ndarray  # (N, B)
    span: np.ndarray  # (N, B)
    compute: np.ndarray  # (N, B) FLOPs
    vector: np.ndarray  # (N, B)
    dtype_bytes: np.ndarray  # (N, B)


@dataclass
class CandidateBatch:
    """N lowered candidates as packed arrays (the SoA of the pipeline).

    Field names mirror :class:`~repro.schedule.lower.LoweredProgram`
    (``threads`` ~ ``threads_per_block``, ``grid`` ~ ``grid``, ...); all
    per-candidate quantities are ``(N,)`` arrays.  Built either by
    :func:`lower_batch` (vectorized, from a :class:`ConfigBatch`) or by
    :meth:`from_programs` (packing existing scalar programs — possibly
    of mixed workloads, e.g. cost-model training data).
    """

    configs: ConfigBatch | None  # present on the lower_batch path
    programs: list[LoweredProgram] | None  # present on the from_programs path
    tensorcore: np.ndarray  # (N,) bool
    # grid / block structure
    n_blocks: np.ndarray
    threads: np.ndarray
    vthreads: np.ndarray
    # registers (L0)
    acc_regs: np.ndarray
    reg_elems: np.ndarray  # S1
    thread_compute: np.ndarray  # S2 (float)
    # shared (L1) / global (L2)
    smem_elems: np.ndarray  # S3
    traffic_elems: np.ndarray  # S5 (float)
    grid: np.ndarray  # S6
    trans_span: np.ndarray  # S7
    flops: np.ndarray  # S8 (float)
    tc_align: np.ndarray  # S9 (float)
    # annotations
    unroll: np.ndarray
    vector: np.ndarray
    splitk: np.ndarray
    # workload-level per-row values (constant on the lower_batch path)
    dtype_bytes: np.ndarray
    output_elems: np.ndarray
    arith_intensity: np.ndarray
    n_fused: np.ndarray
    n_reduction: np.ndarray
    tag_code: np.ndarray  # index into TAG_ORDER
    # dataflow blocks
    blocks: BlockArrays

    def __len__(self) -> int:
        return len(self.threads)

    @property
    def smem_bytes(self) -> np.ndarray:
        """Shared memory per block in bytes, per candidate."""
        return self.smem_elems * self.dtype_bytes

    def row_keys(self) -> list[bytes]:
        """Per-candidate identity bytes (the ``lower_batch`` path only)."""
        assert self.configs is not None
        return self.configs.row_keys()

    def program(self, i: int) -> LoweredProgram:
        """Row ``i`` as a scalar :class:`LoweredProgram` (copies, no lowering)."""
        if self.programs is not None:
            return self.programs[i]
        assert self.configs is not None
        # BlockArrays declares its columns in DataflowBlock's field order
        block_rows = zip(*(col[i].tolist() for col in vars(self.blocks).values()))
        return LoweredProgram(
            workload=self.configs.space.workload,
            config=self.configs.config(i),
            tensorcore=bool(self.tensorcore[i]),
            n_blocks=int(self.n_blocks[i]),
            threads_per_block=int(self.threads[i]),
            vthreads=int(self.vthreads[i]),
            acc_regs=int(self.acc_regs[i]),
            reg_elems=int(self.reg_elems[i]),
            thread_compute=float(self.thread_compute[i]),
            smem_elems=int(self.smem_elems[i]),
            traffic_elems=float(self.traffic_elems[i]),
            grid=int(self.grid[i]),
            trans_span=int(self.trans_span[i]),
            flops=float(self.flops[i]),
            tc_align=float(self.tc_align[i]),
            unroll=int(self.unroll[i]),
            vector=int(self.vector[i]),
            splitk=int(self.splitk[i]),
            blocks=tuple(
                DataflowBlock(BLOCK_KINDS[kind], *rest)
                for kind, *rest in block_rows
                if kind >= 0  # -1 pads rows with fewer blocks
            ),
        )

    def take(self, idx: np.ndarray) -> "CandidateBatch":
        """Subset (or reorder) every array by an index/mask array."""
        idx = np.asarray(idx)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        b = self.blocks
        return CandidateBatch(
            configs=self.configs.take(idx) if self.configs is not None else None,
            programs=(
                [self.programs[int(i)] for i in idx]
                if self.programs is not None
                else None
            ),
            tensorcore=self.tensorcore[idx],
            n_blocks=self.n_blocks[idx],
            threads=self.threads[idx],
            vthreads=self.vthreads[idx],
            acc_regs=self.acc_regs[idx],
            reg_elems=self.reg_elems[idx],
            thread_compute=self.thread_compute[idx],
            smem_elems=self.smem_elems[idx],
            traffic_elems=self.traffic_elems[idx],
            grid=self.grid[idx],
            trans_span=self.trans_span[idx],
            flops=self.flops[idx],
            tc_align=self.tc_align[idx],
            unroll=self.unroll[idx],
            vector=self.vector[idx],
            splitk=self.splitk[idx],
            dtype_bytes=self.dtype_bytes[idx],
            output_elems=self.output_elems[idx],
            arith_intensity=self.arith_intensity[idx],
            n_fused=self.n_fused[idx],
            n_reduction=self.n_reduction[idx],
            tag_code=self.tag_code[idx],
            blocks=BlockArrays(
                kind=b.kind[idx],
                src=b.src[idx],
                dst=b.dst[idx],
                traffic=b.traffic[idx],
                alloc=b.alloc[idx],
                reuse=b.reuse[idx],
                span=b.span[idx],
                compute=b.compute[idx],
                vector=b.vector[idx],
                dtype_bytes=b.dtype_bytes[idx],
            ),
        )

    # ------------------------------------------------------------------
    @classmethod
    def concat(cls, parts: list["CandidateBatch"]) -> "CandidateBatch":
        """Stack candidate batches, preserving order (memo chunks).

        All parts must share an origin: either every part carries a
        :class:`ConfigBatch` (``lower_batch`` output, same space) or
        every part carries a program list (``from_programs`` output).
        Block arrays are padded to the widest part with the same fill
        values :meth:`from_programs` uses (``kind = -1``, zeros), so
        concatenation commutes with packing.
        """
        if not parts:
            raise ScheduleError("cannot concatenate zero candidate batches")
        if len(parts) == 1:
            return parts[0]
        if all(p.configs is not None for p in parts):
            configs = ConfigBatch.concat([p.configs for p in parts])
            programs = None
        elif all(p.programs is not None for p in parts):
            configs = None
            programs = [q for p in parts for q in p.programs]
        else:
            raise ScheduleError("cannot concatenate mixed-origin candidate batches")
        width = max(p.blocks.kind.shape[1] for p in parts)

        def cat_blocks(field: str, fill) -> np.ndarray:
            arrs = []
            for p in parts:
                a = getattr(p.blocks, field)
                if a.shape[1] < width:
                    pad = np.full(
                        (a.shape[0], width - a.shape[1]), fill, dtype=a.dtype
                    )
                    a = np.concatenate([a, pad], axis=1)
                arrs.append(a)
            return np.concatenate(arrs, axis=0)

        def cat(field: str) -> np.ndarray:
            return np.concatenate([getattr(p, field) for p in parts])

        return cls(
            configs=configs,
            programs=programs,
            tensorcore=cat("tensorcore"),
            n_blocks=cat("n_blocks"),
            threads=cat("threads"),
            vthreads=cat("vthreads"),
            acc_regs=cat("acc_regs"),
            reg_elems=cat("reg_elems"),
            thread_compute=cat("thread_compute"),
            smem_elems=cat("smem_elems"),
            traffic_elems=cat("traffic_elems"),
            grid=cat("grid"),
            trans_span=cat("trans_span"),
            flops=cat("flops"),
            tc_align=cat("tc_align"),
            unroll=cat("unroll"),
            vector=cat("vector"),
            splitk=cat("splitk"),
            dtype_bytes=cat("dtype_bytes"),
            output_elems=cat("output_elems"),
            arith_intensity=cat("arith_intensity"),
            n_fused=cat("n_fused"),
            n_reduction=cat("n_reduction"),
            tag_code=cat("tag_code"),
            blocks=BlockArrays(
                kind=cat_blocks("kind", -1),
                src=cat_blocks("src", 0),
                dst=cat_blocks("dst", 0),
                traffic=cat_blocks("traffic", 0.0),
                alloc=cat_blocks("alloc", 0.0),
                reuse=cat_blocks("reuse", 0.0),
                span=cat_blocks("span", 0),
                compute=cat_blocks("compute", 0.0),
                vector=cat_blocks("vector", 0),
                dtype_bytes=cat_blocks("dtype_bytes", 0),
            ),
        )

    @classmethod
    def from_programs(cls, progs: list[LoweredProgram]) -> "CandidateBatch":
        """Pack scalar programs (mixed workloads allowed) into arrays."""
        n = len(progs)
        max_blocks = max((len(p.blocks) for p in progs), default=0)
        blocks = BlockArrays(
            kind=np.full((n, max_blocks), -1, dtype=_I64),
            src=np.zeros((n, max_blocks), dtype=_I64),
            dst=np.zeros((n, max_blocks), dtype=_I64),
            traffic=np.zeros((n, max_blocks), dtype=_F64),
            alloc=np.zeros((n, max_blocks), dtype=_F64),
            reuse=np.zeros((n, max_blocks), dtype=_F64),
            span=np.zeros((n, max_blocks), dtype=_I64),
            compute=np.zeros((n, max_blocks), dtype=_F64),
            vector=np.zeros((n, max_blocks), dtype=_I64),
            dtype_bytes=np.zeros((n, max_blocks), dtype=_I64),
        )
        for i, p in enumerate(progs):
            for b, blk in enumerate(p.blocks):
                blocks.kind[i, b] = _KIND_CODE[blk.kind]
                blocks.src[i, b] = blk.src_level
                blocks.dst[i, b] = blk.dst_level
                blocks.traffic[i, b] = blk.traffic_elems
                blocks.alloc[i, b] = blk.alloc_elems
                blocks.reuse[i, b] = blk.reuse
                blocks.span[i, b] = blk.innermost_span
                blocks.compute[i, b] = blk.compute_ops
                blocks.vector[i, b] = blk.vector
                blocks.dtype_bytes[i, b] = blk.dtype_bytes
        return cls(
            configs=None,
            programs=list(progs),
            tensorcore=np.array([p.tensorcore for p in progs], dtype=bool),
            n_blocks=np.array([p.n_blocks for p in progs], dtype=_I64),
            threads=np.array([p.threads_per_block for p in progs], dtype=_I64),
            vthreads=np.array([p.vthreads for p in progs], dtype=_I64),
            acc_regs=np.array([p.acc_regs for p in progs], dtype=_I64),
            reg_elems=np.array([p.reg_elems for p in progs], dtype=_I64),
            thread_compute=np.array([p.thread_compute for p in progs], dtype=_F64),
            smem_elems=np.array([p.smem_elems for p in progs], dtype=_I64),
            traffic_elems=np.array([p.traffic_elems for p in progs], dtype=_F64),
            grid=np.array([p.grid for p in progs], dtype=_I64),
            trans_span=np.array([p.trans_span for p in progs], dtype=_I64),
            flops=np.array([p.flops for p in progs], dtype=_F64),
            tc_align=np.array([p.tc_align for p in progs], dtype=_F64),
            unroll=np.array([p.unroll for p in progs], dtype=_I64),
            vector=np.array([p.vector for p in progs], dtype=_I64),
            splitk=np.array([p.splitk for p in progs], dtype=_I64),
            dtype_bytes=np.array([p.workload.dtype_bytes for p in progs], dtype=_I64),
            output_elems=np.array([p.workload.output_elems for p in progs], dtype=_I64),
            arith_intensity=np.array(
                [p.workload.arithmetic_intensity() for p in progs], dtype=_F64
            ),
            n_fused=np.array([len(p.workload.fused_ops) for p in progs], dtype=_I64),
            n_reduction=np.array([len(p.workload.reduction) for p in progs], dtype=_I64),
            tag_code=np.array(
                [TAG_ORDER.index(p.workload.tag) for p in progs], dtype=_I64
            ),
            blocks=blocks,
        )


# ----------------------------------------------------------------------
# vectorized lowering
# ----------------------------------------------------------------------
def lower_batch(
    space: ScheduleSpace, configs: ConfigBatch | list[ScheduleConfig]
) -> CandidateBatch:
    """Lower a whole batch of schedule points in a few numpy ops.

    Rows do not depend on their neighbours: lowering them one at a time
    or together gives the same bits (the equivalence suite asserts this
    and compares both to frozen references).  Raises
    :class:`~repro.errors.ScheduleError` when a candidate lies outside
    the space.
    """
    if not isinstance(configs, ConfigBatch):
        configs = ConfigBatch.from_configs(space, configs)
    validate_batch(space, configs)
    impl = _lower_tiled_batch if space.workload.is_tiled else _lower_flat_batch
    return impl(space, configs)


def _lower_tiled_batch(space: ScheduleSpace, cb: ConfigBatch) -> CandidateBatch:
    plan = space_plan(space)
    wl = plan.workload
    n = len(cb)
    note_lowered(n)
    n_s = plan.n_spatial
    fs = cb.factors[:, :n_s, :]
    fr = cb.factors[:, n_s:, :]
    splitk = cb.splitk

    f0 = fs[:, :, 0].prod(axis=1)
    threads = fs[:, :, 1].prod(axis=1)
    vthreads = fs[:, :, 2].prod(axis=1)
    thread_tile = fs[:, :, 2] * fs[:, :, 3] * fs[:, :, 4]  # (N, n_s)
    block_tile = fs[:, :, 1] * thread_tile
    n_blocks = f0 * splitk

    chunk = fr[:, :, 1] * fr[:, :, 2]  # (N, n_r)
    red_extents = plan.extents[n_s:]
    red_per_block = np.maximum(
        1, np.ceil(red_extents[None, :] / splitk[:, None]).astype(_I64)
    )

    # ----- L0: registers -----
    acc_regs = thread_tile.prod(axis=1)
    input_regs = [
        np.where(r.reg_mask[None, :], thread_tile, 1).prod(axis=1) for r in plan.reads
    ]
    operand_regs = np.zeros(n, dtype=_I64)
    for regs in input_regs:
        operand_regs = operand_regs + regs
    reg_elems = acc_regs + operand_regs
    thread_compute = (acc_regs * red_per_block.prod(axis=1)).astype(_F64)

    # ----- L1: shared tiles -----
    shared_tiles = np.concatenate([block_tile, chunk], axis=1)  # (N, A)
    block_points = block_tile.prod(axis=1) * chunk.prod(axis=1)
    shared_fp, shared_span, shared_reuse = [], [], []
    for read in plan.reads:
        fp, span = read.footprint(shared_tiles)
        shared_fp.append(fp)
        shared_span.append(span)
        shared_reuse.append(block_points / np.maximum(1, fp))
    if space.use_shared and plan.reads:
        smem_elems = np.sum(shared_fp, axis=0)
    else:
        smem_elems = np.zeros(n, dtype=_I64)

    # ----- L2: global traffic -----
    traffic_tiles = np.concatenate([block_tile, red_per_block], axis=1)
    input_traffic = []
    traffic_elems = np.zeros(n, dtype=_F64)
    for read in plan.reads:
        fp, _ = read.footprint(traffic_tiles)
        t = fp.astype(_F64) * n_blocks
        input_traffic.append(t)
        traffic_elems = traffic_elems + t
    store_traffic = float(wl.output_elems) * splitk
    epilogue_reads = float(wl.output_elems) * sum(
        1 for op in wl.fused_ops if op in ("add", "residual")
    )
    traffic_elems = traffic_elems + store_traffic + epilogue_reads
    trans_span = (
        np.minimum.reduce(shared_span) if shared_span else np.ones(n, dtype=_I64)
    )

    # ----- S9 fragment alignment: fraction of issued WMMA lanes doing useful
    # work — thread tiles that are multiples of the fragment edge score 1.0,
    # ragged tiles waste lanes proportionally -----
    tc_align = np.ones(n, dtype=_F64)
    if space.tensorcore:
        for a in plan.tc_matrix_axes:
            tt = cb.factors[:, a, 2] * cb.factors[:, a, 3] * cb.factors[:, a, 4]
            waves = -(-tt // WMMA_LANE)
            tc_align = tc_align * (tt / (waves * WMMA_LANE))

    # ----- dataflow blocks (fixed layout: init, loads, [frag], compute, store)
    n_loads = len(plan.reads)
    layout = [BK_INIT] + [BK_LOAD] * n_loads
    src = [L0] + [L2] * n_loads
    dst = [L0] + [L1] * n_loads
    if space.tensorcore:
        layout += [BK_FRAGMENT]
        src += [L1]
        dst += [FRAGMENT]
    layout += [BK_COMPUTE, BK_STORE]
    src += [FRAGMENT if space.tensorcore else L1, L0]
    dst += [L0, L2]
    nb = len(layout)
    blocks = BlockArrays(
        kind=np.broadcast_to(np.array(layout, dtype=_I64), (n, nb)).copy(),
        src=np.broadcast_to(np.array(src, dtype=_I64), (n, nb)).copy(),
        dst=np.broadcast_to(np.array(dst, dtype=_I64), (n, nb)).copy(),
        traffic=np.zeros((n, nb), dtype=_F64),
        alloc=np.zeros((n, nb), dtype=_F64),
        reuse=np.zeros((n, nb), dtype=_F64),
        span=np.zeros((n, nb), dtype=_I64),
        compute=np.zeros((n, nb), dtype=_F64),
        vector=np.broadcast_to(cb.vector[:, None], (n, nb)).copy(),
        dtype_bytes=np.full((n, nb), wl.dtype_bytes, dtype=_I64),
    )
    # init
    blocks.alloc[:, 0] = acc_regs
    blocks.reuse[:, 0] = vthreads
    blocks.span[:, 0] = cb.vector
    # loads
    for t in range(n_loads):
        col = 1 + t
        blocks.traffic[:, col] = input_traffic[t]
        blocks.alloc[:, col] = shared_fp[t]
        blocks.reuse[:, col] = shared_reuse[t]
        blocks.span[:, col] = shared_span[t]
    col = 1 + n_loads
    if space.tensorcore:
        frag = operand_regs.astype(_F64)
        blocks.traffic[:, col] = frag * threads
        blocks.alloc[:, col] = frag
        blocks.reuse[:, col] = 1.0
        blocks.span[:, col] = 16
        col += 1
    # compute
    blocks.traffic[:, col] = operand_regs.astype(_F64) * threads
    blocks.alloc[:, col] = acc_regs
    blocks.reuse[:, col] = acc_regs.astype(_F64) / np.maximum(1.0, operand_regs)
    blocks.span[:, col] = np.maximum(1, cb.unroll)
    blocks.compute[:, col] = wl.flops
    # store
    col += 1
    blocks.traffic[:, col] = store_traffic
    blocks.alloc[:, col] = acc_regs
    blocks.reuse[:, col] = 1.0
    blocks.span[:, col] = cb.vector
    blocks.compute[:, col] = float(wl.output_elems) * len(wl.fused_ops)

    return CandidateBatch(
        configs=cb,
        programs=None,
        tensorcore=np.full(n, space.tensorcore, dtype=bool),
        n_blocks=n_blocks,
        threads=threads,
        vthreads=vthreads,
        acc_regs=acc_regs,
        reg_elems=reg_elems,
        thread_compute=thread_compute,
        smem_elems=smem_elems,
        traffic_elems=traffic_elems,
        grid=n_blocks,
        trans_span=trans_span,
        flops=np.full(n, wl.flops, dtype=_F64),
        tc_align=tc_align,
        unroll=cb.unroll,
        vector=cb.vector,
        splitk=splitk,
        dtype_bytes=np.full(n, wl.dtype_bytes, dtype=_I64),
        output_elems=np.full(n, wl.output_elems, dtype=_I64),
        arith_intensity=np.full(n, wl.arithmetic_intensity(), dtype=_F64),
        n_fused=np.full(n, len(wl.fused_ops), dtype=_I64),
        n_reduction=np.full(n, len(wl.reduction), dtype=_I64),
        tag_code=np.full(n, TAG_ORDER.index(wl.tag), dtype=_I64),
        blocks=blocks,
    )


def _lower_flat_batch(space: ScheduleSpace, cb: ConfigBatch) -> CandidateBatch:
    plan = space_plan(space)
    wl = plan.workload
    n = len(cb)
    note_lowered(n)
    n_s = plan.n_spatial
    fs = cb.factors[:, :n_s, :]

    n_blocks = fs[:, :, 0].prod(axis=1)
    threads = fs[:, :, 1].prod(axis=1)
    red_points = math.prod(d.extent for d in wl.reduction) if wl.reduction else 1

    full = wl.loop_extents()
    input_elems = sum(r.footprint(full) for r in wl.reads)
    traffic = float(input_elems + wl.output_elems)
    span = fs[:, n_s - 1, 1] * cb.vector

    blocks = BlockArrays(
        kind=np.full((n, 1), BK_STREAM, dtype=_I64),
        src=np.full((n, 1), L2, dtype=_I64),
        dst=np.full((n, 1), L2, dtype=_I64),
        traffic=np.full((n, 1), traffic, dtype=_F64),
        alloc=cb.vector[:, None].astype(_F64),
        reuse=np.full((n, 1), float(red_points), dtype=_F64),
        span=span[:, None],
        compute=np.full((n, 1), wl.flops, dtype=_F64),
        vector=cb.vector[:, None].copy(),
        dtype_bytes=np.full((n, 1), wl.dtype_bytes, dtype=_I64),
    )
    return CandidateBatch(
        configs=cb,
        programs=None,
        tensorcore=np.zeros(n, dtype=bool),
        n_blocks=n_blocks,
        threads=threads,
        vthreads=np.ones(n, dtype=_I64),
        acc_regs=cb.vector,
        reg_elems=cb.vector * 2,
        thread_compute=float(red_points) * cb.vector,
        smem_elems=np.zeros(n, dtype=_I64),
        traffic_elems=np.full(n, traffic, dtype=_F64),
        grid=n_blocks,
        trans_span=span,
        flops=np.full(n, wl.flops, dtype=_F64),
        tc_align=np.ones(n, dtype=_F64),
        unroll=cb.unroll,
        vector=cb.vector,
        splitk=np.ones(n, dtype=_I64),
        dtype_bytes=np.full(n, wl.dtype_bytes, dtype=_I64),
        output_elems=np.full(n, wl.output_elems, dtype=_I64),
        arith_intensity=np.full(n, wl.arithmetic_intensity(), dtype=_F64),
        n_fused=np.full(n, len(wl.fused_ops), dtype=_I64),
        n_reduction=np.full(n, len(wl.reduction), dtype=_I64),
        tag_code=np.full(n, TAG_ORDER.index(wl.tag), dtype=_I64),
        blocks=blocks,
    )
