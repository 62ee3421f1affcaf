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
  (the symbol columns the draft reads) plus the per-read tile quantities
  the dataflow blocks need (:class:`LoadArrays`).  The only
  implementation of the tile math of the paper's Figures 3 / 4;
  :func:`repro.schedule.lower.lower` is row 0 of a one-row call.
* :func:`build_blocks` — the per-dataflow-block arrays, assembled from a
  batch's columns when :attr:`CandidateBatch.blocks` is first read: only
  for rows whose features are read, never for a row the draft only
  scores, and without running a row's tile math twice.
* :meth:`CandidateBatch.program` — unpacks one row into a scalar
  :class:`~repro.schedule.lower.LoweredProgram` (field copies, no
  lowering) that keeps its one-row batch as ``row``, for callers outside
  the tuning loop (a task's best record).

:func:`lower_batch` is the only origin of a :class:`CandidateBatch`:
every other batch is a :meth:`~CandidateBatch.take` or
:meth:`~CandidateBatch.concat` of its output, so every batch carries the
:class:`ConfigBatch` it was lowered from.

Tile-level conventions follow the paper's Figure 3: spatial factors are
``[f0 block, f1 thread, f2 vthread, f3, f4]`` (I0..I4) and reduction
factors ``[k0, k1, k2]``.  Registers per thread include the vthread
replication (vthreads own private registers in TVM), shared tiles span
the whole thread block, and global traffic counts one shared-tile load
per k0 iteration per block.

``tests/fixtures/lowering_golden.json`` pins :func:`lower_batch` to what
the former per-program implementation produced; concatenating unpacked
rows back (the ``row`` of each ``program(i)``) must reproduce the arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
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

_I64 = np.int64
_F64 = np.float64


# ----------------------------------------------------------------------
# static per-space layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReadPlan:
    """Vectorization plan for one input access pattern.

    ``coeffs`` holds, per tensor index dimension, the coefficients of its
    linear terms over the space's axes, so the spans of every dimension
    over a per-axis tile matrix ``T (N, A)`` are one integer matrix
    product.
    """

    tensor: str
    reg_axes: np.ndarray  # spatial axes this read touches
    coeffs: np.ndarray  # (n_dims, A)

    def footprint(self, tiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(footprint, innermost span)`` arrays over a tile matrix."""
        if not len(self.coeffs):
            ones = np.ones(tiles.shape[0], dtype=_I64)
            return ones, ones
        spans = 1 + self.coeffs @ (tiles - 1).T  # (n_dims, N)
        return spans.prod(axis=0), spans[-1]


def _prod_last(x: np.ndarray) -> np.ndarray:
    """``x.prod(axis=-1)`` of an integer array as one multiply per entry
    of the last axis, which numpy does several times faster than
    reducing a short last axis."""
    if not x.shape[-1]:
        return np.ones(x.shape[:-1], dtype=x.dtype)
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        out *= x[..., j]
    return out


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
    # workload constants every lowered row carries
    flops: float
    output_elems: int
    arith_intensity: float
    tag_code: int  # index into TAG_ORDER
    epilogue_reads: float  # output elements the fused add / residual ops read
    stream_traffic: float  # a flat (untiled) program's whole traffic, in elements
    reduction_points: int  # reduction iterations per output element

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
        reg_axes = np.array(
            [i for i, a in enumerate(spatial_axes) if a in touched], dtype=np.intp
        )
        coeffs = np.zeros((len(read.index), len(axes)), dtype=_I64)
        for d, dim in enumerate(read.index):
            for name, c in dim:
                if name in pos:
                    coeffs[d, pos[name]] += c
        reads.append(ReadPlan(tensor=read.tensor, reg_axes=reg_axes, coeffs=coeffs))

    tc_matrix: tuple[int, ...] = ()
    tc_red = -1
    if space.tensorcore:
        tc_matrix = tuple(pos[s.axis] for s in space.spatial_splits[-2:])
        if space.reduction_splits:
            tc_red = pos[space.reduction_splits[0].axis]

    full = wl.loop_extents()
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
        flops=wl.flops,
        output_elems=wl.output_elems,
        arith_intensity=wl.arithmetic_intensity(),
        tag_code=TAG_ORDER.index(wl.tag),
        epilogue_reads=float(wl.output_elems)
        * sum(1 for op in wl.fused_ops if op in ("add", "residual")),
        stream_traffic=float(sum(r.footprint(full) for r in wl.reads) + wl.output_elems),
        reduction_points=math.prod(d.extent for d in wl.reduction),
    )


register_lru("schedule.batch.space_plan", space_plan)


# ----------------------------------------------------------------------
# ConfigBatch: N configs as a factor tensor
# ----------------------------------------------------------------------
def _row_index(idx) -> np.ndarray:
    """An index or boolean-mask array as row indices (``[]`` selects no rows)."""
    idx = np.asarray(idx)
    if idx.dtype == bool:
        return np.flatnonzero(idx)
    return idx if idx.size else idx.astype(np.intp)  # np.asarray([]) is float64


#: Odd multipliers of the row hash :meth:`ConfigBatch.first_rows` groups
#: by, one per row column (reused cyclically past the 64th).  Constants,
#: hashed from a fixed seed: they never come from, or advance, a tuning
#: generator, and no result depends on their values.
_ROW_HASH_MULTIPLIERS = np.random.SeedSequence(0x5EED).generate_state(64, np.uint64) | 1


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
        So does an integer that does not fit in an int64.
        The objects themselves are not kept: a batch that holds configs
        makes each view taken of it carry a per-row list.
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
            except (TypeError, OverflowError):
                raise ScheduleError(f"config {cfg.key}: non-integer or non-int64 value") from None
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
        idx = _row_index(idx)
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

    def _flat_rows(self) -> np.ndarray:
        """Each candidate as one contiguous int64 row: factors, then annotations."""
        n = len(self)
        return np.concatenate(
            [
                self.factors.reshape(n, math.prod(self.factors.shape[1:])),
                self.unroll[:, None],
                self.vector[:, None],
                self.splitk[:, None],
            ],
            axis=1,
        )

    def row_ids(self) -> np.ndarray:
        """Opaque per-candidate identity values (for vectorized dedup)."""
        flat = self._flat_rows()
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
        """Index of the first occurrence of each distinct candidate, ascending.

        Rows are grouped by a 64-bit hash (a wrapping dot product with
        :data:`_ROW_HASH_MULTIPLIERS`) under a stable argsort, so each run
        of equal hashes starts at its lowest row.  Equal rows hash equal;
        if a run also holds a row unequal to its neighbour (a collision),
        the rows are deduplicated by ``np.unique`` over their bytes instead.
        """
        flat = self._flat_rows()
        multipliers = np.resize(_ROW_HASH_MULTIPLIERS, flat.shape[1])
        hashes = flat.view(np.uint64) @ multipliers
        order = np.argsort(hashes, kind="stable")
        ranked = hashes[order]
        repeat = ranked[1:] == ranked[:-1]
        if repeat.any() and not np.array_equal(
            flat[order[1:][repeat]], flat[order[:-1][repeat]]
        ):
            _, first = np.unique(self.row_ids(), return_index=True)
            return np.sort(first)
        starts = np.concatenate(([True], ~repeat))[: len(order)]  # no rows, no starts
        return np.sort(order[starts])

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
    if len(batch) and batch.factors.min() < 1:
        raise ScheduleError("factors must be >= 1")
    bad = _prod_last(batch.factors) != plan.extents[None, :]
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
        ok = np.zeros(len(values), dtype=bool)
        for option in options.tolist():  # a few options: one compare each
            ok |= values == option
        if not ok.all():
            raise ScheduleError(f"{name} {values[~ok][0]} not in {tuple(options)}")
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

    ``kind`` / ``src`` / ``dst`` are ``(N, B)`` int arrays (``B`` is
    fixed by the space: every row has the same blocks); the float arrays
    carry the per-block quantities of
    :class:`~repro.schedule.lower.DataflowBlock`.
    """

    kind: np.ndarray  # (N, B) codes into BLOCK_KINDS
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
class LoadArrays:
    """What the dataflow blocks read of a row's tile math beyond its columns.

    One column per input read of the space, in ``SpacePlan.reads`` order
    (none on a flat space): quantities the lowering computes on the way
    to S3, S5 and S7 and keeps, so :func:`build_blocks` assembles the
    blocks without running the tile math again.
    """

    traffic: np.ndarray  # (N, R) global elements a read loads
    alloc: np.ndarray  # (N, R) its shared-tile footprint
    span: np.ndarray  # (N, R) its shared tile's innermost span
    points: np.ndarray  # (N,) iteration points of a block's shared tile


@dataclass
class CandidateBatch:
    """N lowered candidates as packed arrays (the SoA of the pipeline).

    Field names mirror :class:`~repro.schedule.lower.LoweredProgram`
    (``threads`` ~ ``threads_per_block``, ``grid`` ~ ``grid``, ...); all
    per-candidate quantities are ``(N,)`` arrays.  Built by
    :func:`lower_batch` from a :class:`ConfigBatch` of one space, or
    taken / concatenated from such batches.  The dataflow blocks are not
    a field: :attr:`blocks` builds them on first read.
    """

    configs: ConfigBatch
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
    # the tile math the dataflow blocks read
    loads: LoadArrays

    def __len__(self) -> int:
        return len(self.threads)

    @cached_property
    def blocks(self) -> BlockArrays:
        """The dataflow blocks, built by :func:`build_blocks` on first
        read and kept.

        Only the feature encoders read them: rows the draft only scores,
        and rows that are only taken, concatenated or measured, never
        build them.  :meth:`take` and :meth:`concat` carry ``loads``,
        not built blocks.
        """
        return build_blocks(self)

    @property
    def smem_bytes(self) -> np.ndarray:
        """Shared memory per block in bytes, per candidate."""
        return self.smem_elems * self.dtype_bytes

    def row_keys(self) -> list[bytes]:
        """Per-candidate identity bytes."""
        return self.configs.row_keys()

    def program(self, i: int) -> LoweredProgram:
        """Row ``i`` as a scalar :class:`LoweredProgram` (copies, no lowering).

        The program keeps row ``i`` as a one-row batch in ``row`` — the
        batch itself when it has one row, as :func:`~repro.schedule.lower.
        lower`'s does — which
        :meth:`~repro.hardware.simulator.GroundTruthSimulator.latency`
        and the models' ``featurize`` read.  Its blocks are that row's.
        """
        row = self if len(self) == 1 else self.take([i])
        # BlockArrays declares its columns in DataflowBlock's field order
        block_rows = zip(*(col[0].tolist() for col in vars(row.blocks).values()))
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
            ),
            row=row,
        )

    def take(self, idx: np.ndarray) -> "CandidateBatch":
        """Subset (or reorder) every array by an index/mask array."""
        idx = _row_index(idx)
        return CandidateBatch(
            self.configs.take(idx),
            *(getattr(self, name)[idx] for name in _COLUMNS),
            LoadArrays(*(getattr(self.loads, name)[idx] for name in _LOAD_COLUMNS)),
        )

    @classmethod
    def concat(cls, parts: list["CandidateBatch"]) -> "CandidateBatch":
        """Stack candidate batches of one space, preserving order."""
        if not parts:
            raise ScheduleError("cannot concatenate zero candidate batches")
        if len(parts) == 1:
            return parts[0]
        return cls(
            ConfigBatch.concat([p.configs for p in parts]),
            *(np.concatenate([getattr(p, name) for p in parts]) for name in _COLUMNS),
            LoadArrays(
                *(
                    np.concatenate([getattr(p.loads, name) for p in parts])
                    for name in _LOAD_COLUMNS
                )
            ),
        )


#: The per-row arrays of a batch in field order: every field of
#: :class:`CandidateBatch` between ``configs`` and ``loads``.
_COLUMNS = tuple(f.name for f in fields(CandidateBatch))[1:-1]
_LOAD_COLUMNS = tuple(f.name for f in fields(LoadArrays))


def build_blocks(batch: CandidateBatch) -> BlockArrays:
    """The dataflow blocks of every row of ``batch``, from its columns
    and :class:`LoadArrays` (no tile math runs here).

    Every row of a space has the same layout: a flat program one stream
    block; a tiled one init, a load per input read, a fragment stage on
    TensorCores, compute and store.
    """
    plan = space_plan(batch.configs.space)
    wl = plan.workload
    n = len(batch)
    if not wl.is_tiled:
        return BlockArrays(
            kind=np.full((n, 1), BK_STREAM, dtype=_I64),
            src=np.full((n, 1), L2, dtype=_I64),
            dst=np.full((n, 1), L2, dtype=_I64),
            traffic=np.full((n, 1), plan.stream_traffic, dtype=_F64),
            alloc=batch.vector[:, None].astype(_F64),
            reuse=np.full((n, 1), float(plan.reduction_points), dtype=_F64),
            span=batch.trans_span[:, None],
            compute=np.full((n, 1), plan.flops, dtype=_F64),
            vector=batch.vector[:, None].copy(),
            dtype_bytes=np.full((n, 1), wl.dtype_bytes, dtype=_I64),
        )

    tensorcore = plan.space.tensorcore
    n_loads = len(plan.reads)
    layout = [BK_INIT] + [BK_LOAD] * n_loads
    src = [L0] + [L2] * n_loads
    dst = [L0] + [L1] * n_loads
    if tensorcore:
        layout += [BK_FRAGMENT]
        src += [L1]
        dst += [FRAGMENT]
    layout += [BK_COMPUTE, BK_STORE]
    src += [FRAGMENT if tensorcore else L1, L0]
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
        vector=np.broadcast_to(batch.vector[:, None], (n, nb)).copy(),
        dtype_bytes=np.full((n, nb), wl.dtype_bytes, dtype=_I64),
    )
    acc_regs = batch.acc_regs
    operand_regs = batch.reg_elems - acc_regs  # S1 is their sum
    # init
    blocks.alloc[:, 0] = acc_regs
    blocks.reuse[:, 0] = batch.vthreads
    blocks.span[:, 0] = batch.vector
    # loads
    loads = batch.loads
    col = slice(1, 1 + n_loads)
    blocks.traffic[:, col] = loads.traffic
    blocks.alloc[:, col] = loads.alloc
    blocks.reuse[:, col] = loads.points[:, None] / np.maximum(1, loads.alloc)
    blocks.span[:, col] = loads.span
    col = 1 + n_loads
    if tensorcore:
        frag = operand_regs.astype(_F64)
        blocks.traffic[:, col] = frag * batch.threads
        blocks.alloc[:, col] = frag
        blocks.reuse[:, col] = 1.0
        blocks.span[:, col] = 16
        col += 1
    # compute
    blocks.traffic[:, col] = operand_regs.astype(_F64) * batch.threads
    blocks.alloc[:, col] = acc_regs
    blocks.reuse[:, col] = acc_regs.astype(_F64) / np.maximum(1.0, operand_regs)
    blocks.span[:, col] = np.maximum(1, batch.unroll)
    blocks.compute[:, col] = plan.flops
    # store
    col += 1
    blocks.traffic[:, col] = float(plan.output_elems) * batch.splitk
    blocks.alloc[:, col] = acc_regs
    blocks.reuse[:, col] = 1.0
    blocks.span[:, col] = batch.vector
    blocks.compute[:, col] = float(plan.output_elems) * len(wl.fused_ops)
    return blocks


# ----------------------------------------------------------------------
# vectorized lowering
# ----------------------------------------------------------------------
def lower_batch(
    space: ScheduleSpace, configs: ConfigBatch | list[ScheduleConfig]
) -> CandidateBatch:
    """Lower a whole batch of schedule points in a few numpy ops.

    Rows do not depend on their neighbours: lowering them one at a time
    or together gives the same bits (the equivalence suite asserts this
    and compares both to frozen references).  The lowering computes the
    symbol columns and what the dataflow blocks need of the tile math
    (:class:`LoadArrays`); the blocks themselves are built only when a
    feature encoder reads them (:attr:`CandidateBatch.blocks`).  Raises
    :class:`~repro.errors.ScheduleError` when a candidate lies outside
    the space.
    """
    if not isinstance(configs, ConfigBatch):
        configs = ConfigBatch.from_configs(space, configs)
    validate_batch(space, configs)
    impl = _lower_tiled_batch if space.workload.is_tiled else _lower_flat_batch
    return impl(space, configs)


def _workload_columns(plan: SpacePlan, n: int) -> dict[str, np.ndarray]:
    """The per-row copies of the space's workload constants."""
    wl = plan.workload
    return dict(
        flops=np.full(n, plan.flops, dtype=_F64),
        dtype_bytes=np.full(n, wl.dtype_bytes, dtype=_I64),
        output_elems=np.full(n, plan.output_elems, dtype=_I64),
        arith_intensity=np.full(n, plan.arith_intensity, dtype=_F64),
        n_fused=np.full(n, len(wl.fused_ops), dtype=_I64),
        n_reduction=np.full(n, len(wl.reduction), dtype=_I64),
        tag_code=np.full(n, plan.tag_code, dtype=_I64),
    )


def _lower_tiled_batch(space: ScheduleSpace, cb: ConfigBatch) -> CandidateBatch:
    plan = space_plan(space)
    n = len(cb)
    note_lowered(n)
    n_s = plan.n_spatial
    fs = cb.factors[:, :n_s, :]
    fr = cb.factors[:, n_s:, :]
    splitk = cb.splitk

    f0 = _prod_last(fs[:, :, 0])
    threads = _prod_last(fs[:, :, 1])
    vthreads = _prod_last(fs[:, :, 2])
    thread_tile = fs[:, :, 2] * fs[:, :, 3] * fs[:, :, 4]  # (N, n_s)
    block_tile = fs[:, :, 1] * thread_tile
    n_blocks = f0 * splitk

    chunk = fr[:, :, 1] * fr[:, :, 2]  # (N, n_r)
    red_extents = plan.extents[n_s:]
    red_per_block = np.maximum(
        1, np.ceil(red_extents[None, :] / splitk[:, None]).astype(_I64)
    )

    # ----- L0: registers -----
    acc_regs = _prod_last(thread_tile)
    operand_regs = np.zeros(n, dtype=_I64)
    for r in plan.reads:
        operand_regs = operand_regs + _prod_last(thread_tile[:, r.reg_axes])
    reg_elems = acc_regs + operand_regs
    thread_compute = (acc_regs * _prod_last(red_per_block)).astype(_F64)

    # ----- L1: shared tiles -----
    n_reads = len(plan.reads)
    shared_tiles = np.concatenate([block_tile, chunk], axis=1)  # (N, A)
    loads = LoadArrays(
        traffic=np.empty((n, n_reads), dtype=_F64),
        alloc=np.empty((n, n_reads), dtype=_I64),
        span=np.empty((n, n_reads), dtype=_I64),
        points=_prod_last(shared_tiles),
    )
    for t, read in enumerate(plan.reads):
        loads.alloc[:, t], loads.span[:, t] = read.footprint(shared_tiles)
    if space.use_shared and n_reads:
        smem_elems = loads.alloc.sum(axis=1)
    else:
        smem_elems = np.zeros(n, dtype=_I64)

    # ----- L2: global traffic -----
    traffic_tiles = np.concatenate([block_tile, red_per_block], axis=1)
    traffic_elems = np.zeros(n, dtype=_F64)
    for t, read in enumerate(plan.reads):
        fp, _ = read.footprint(traffic_tiles)
        loads.traffic[:, t] = fp.astype(_F64) * n_blocks
        traffic_elems = traffic_elems + loads.traffic[:, t]
    store_traffic = float(plan.output_elems) * splitk
    traffic_elems = traffic_elems + store_traffic + plan.epilogue_reads
    trans_span = loads.span.min(axis=1) if n_reads else np.ones(n, dtype=_I64)

    # ----- S9 fragment alignment: fraction of issued WMMA lanes doing useful
    # work — thread tiles that are multiples of the fragment edge score 1.0,
    # ragged tiles waste lanes proportionally -----
    tc_align = np.ones(n, dtype=_F64)
    if space.tensorcore:
        for a in plan.tc_matrix_axes:
            tt = cb.factors[:, a, 2] * cb.factors[:, a, 3] * cb.factors[:, a, 4]
            waves = -(-tt // WMMA_LANE)
            tc_align = tc_align * (tt / (waves * WMMA_LANE))

    return CandidateBatch(
        configs=cb,
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
        tc_align=tc_align,
        unroll=cb.unroll,
        vector=cb.vector,
        splitk=splitk,
        loads=loads,
        **_workload_columns(plan, n),
    )


def _lower_flat_batch(space: ScheduleSpace, cb: ConfigBatch) -> CandidateBatch:
    plan = space_plan(space)
    n = len(cb)
    note_lowered(n)
    fs = cb.factors[:, : plan.n_spatial, :]
    n_blocks = _prod_last(fs[:, :, 0])
    no_loads = np.empty((n, 0), dtype=_I64)
    return CandidateBatch(
        configs=cb,
        tensorcore=np.zeros(n, dtype=bool),
        n_blocks=n_blocks,
        threads=_prod_last(fs[:, :, 1]),
        vthreads=np.ones(n, dtype=_I64),
        acc_regs=cb.vector,
        reg_elems=cb.vector * 2,
        thread_compute=float(plan.reduction_points) * cb.vector,
        smem_elems=np.zeros(n, dtype=_I64),
        traffic_elems=np.full(n, plan.stream_traffic, dtype=_F64),
        grid=n_blocks,
        trans_span=fs[:, -1, 1] * cb.vector,
        tc_align=np.ones(n, dtype=_F64),
        unroll=cb.unroll,
        vector=cb.vector,
        splitk=np.ones(n, dtype=_I64),
        loads=LoadArrays(no_loads.astype(_F64), no_loads, no_loads, np.zeros(n, dtype=_I64)),
        **_workload_columns(plan, n),
    )
