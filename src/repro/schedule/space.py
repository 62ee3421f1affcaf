"""Schedule space (θx) and concrete schedule configurations.

A :class:`ScheduleSpace` describes every tunable decision for one
workload: per-axis tile factorizations, unroll / vectorize annotations,
optional splitK, and the TensorCore constraint.  A
:class:`ScheduleConfig` is one point in that space.  The space for a
large GEMM easily exceeds 10^9 points, matching the search-space sizes
the paper reports for GPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

from repro.cache import register_lru
from repro.errors import ScheduleError
from repro.ir.ops import Workload

SPATIAL_PARTS = 5  # [block, thread, vthread, inner0, inner1]  (paper I0..I4)
REDUCTION_PARTS = 3  # [k0, k1, k2]
WMMA = 16  # TensorCore WMMA fragment edge (16x16x16, owned by a warp)
WMMA_LANE = 4  # per-lane share of a fragment edge (16x16 / 32 lanes)

UNROLL_OPTIONS = (0, 16, 64, 512)
VECTOR_OPTIONS = (1, 2, 4)
SPLITK_OPTIONS = (1, 2, 4, 8)


@lru_cache(maxsize=4096)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of ``n`` in ascending order."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@lru_cache(maxsize=16384)
def count_factorizations(extent: int, parts: int) -> int:
    """Number of ordered factorizations of ``extent`` into ``parts`` factors.

    Computed from the prime factorization: for each prime with exponent
    ``e`` there are C(e + parts - 1, parts - 1) ways to spread it.
    """
    if extent < 1 or parts < 1:
        raise ScheduleError("extent and parts must be positive")
    count = 1
    n = extent
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            count *= math.comb(e + parts - 1, parts - 1)
        p += 1
    if n > 1:
        count *= math.comb(1 + parts - 1, parts - 1)
    return count


register_lru("schedule.space.divisors", divisors)
register_lru("schedule.space.count_factorizations", count_factorizations)


@dataclass(frozen=True)
class AxisSplit:
    """Tiling decision for one loop axis."""

    axis: str
    extent: int
    parts: int

    def validate_factors(self, factors: tuple[int, ...]) -> None:
        """Raise ScheduleError unless ``factors`` is a valid factorization."""
        if len(factors) != self.parts:
            raise ScheduleError(
                f"axis {self.axis!r}: expected {self.parts} factors, got {len(factors)}"
            )
        if any(f < 1 for f in factors):
            raise ScheduleError(f"axis {self.axis!r}: factors must be >= 1: {factors}")
        if math.prod(factors) != self.extent:
            raise ScheduleError(
                f"axis {self.axis!r}: prod{factors} != extent {self.extent}"
            )


@dataclass(frozen=True)
class ScheduleSpace:
    """All tunable decisions for one workload (the paper's θx).

    Attributes
    ----------
    workload:
        The workload this space was generated for.
    spatial_splits / reduction_splits:
        Per-axis tiling decisions (5-way / 3-way for the GPU sketch).
    unroll_options / vector_options / splitk_options:
        Annotation menus (splitK > 1 only where the sketch allows it).
    use_shared:
        Whether inputs are staged through shared memory (GPU tiling
        sketch; off for element-wise sketches).
    tensorcore:
        If True, thread tiles of the two matrix spatial axes and the
        reduction chunk must be multiples of the WMMA edge (16).
    """

    workload: Workload
    spatial_splits: tuple[AxisSplit, ...]
    reduction_splits: tuple[AxisSplit, ...] = ()
    unroll_options: tuple[int, ...] = UNROLL_OPTIONS
    vector_options: tuple[int, ...] = VECTOR_OPTIONS
    splitk_options: tuple[int, ...] = (1,)
    use_shared: bool = True
    tensorcore: bool = False

    @property
    def splits(self) -> tuple[AxisSplit, ...]:
        """All axis splits, spatial first."""
        return self.spatial_splits + self.reduction_splits

    def size(self) -> int:
        """Total number of schedule points (annotations included)."""
        n = 1
        for s in self.splits:
            n *= count_factorizations(s.extent, s.parts)
        n *= len(self.unroll_options) * len(self.vector_options)
        n *= len(self.splitk_options)
        return n

    def validate(self, config: "ScheduleConfig") -> None:
        """Raise ScheduleError unless ``config`` lies in this space."""
        tile_map = config.tile_map
        if set(tile_map) != {s.axis for s in self.splits}:
            raise ScheduleError(
                f"config axes {sorted(tile_map)} do not match space axes "
                f"{sorted(s.axis for s in self.splits)}"
            )
        for s in self.splits:
            s.validate_factors(tile_map[s.axis])
        if config.unroll not in self.unroll_options:
            raise ScheduleError(f"unroll {config.unroll} not in {self.unroll_options}")
        if config.vector not in self.vector_options:
            raise ScheduleError(f"vector {config.vector} not in {self.vector_options}")
        if config.splitk not in self.splitk_options:
            raise ScheduleError(f"splitk {config.splitk} not in {self.splitk_options}")
        if self.tensorcore:
            self._validate_tensorcore(config)

    def _validate_tensorcore(self, config: "ScheduleConfig") -> None:
        tile_map = config.tile_map
        for s in self.spatial_splits[-2:]:  # the two matrix dims (i, j)
            thread_tile = math.prod(tile_map[s.axis][2:])
            if thread_tile % WMMA_LANE != 0:
                raise ScheduleError(
                    f"tensorcore: thread tile of {s.axis!r} must be a multiple "
                    f"of {WMMA_LANE} (per-lane fragment share), got {thread_tile}"
                )
        if self.reduction_splits:
            k = self.reduction_splits[0]
            chunk = math.prod(tile_map[k.axis][1:])
            if chunk % WMMA != 0:
                raise ScheduleError(
                    f"tensorcore: reduction chunk must be a multiple of {WMMA}, got {chunk}"
                )


@dataclass(frozen=True)
class ScheduleConfig:
    """One concrete schedule: tile factors + annotations.

    ``tiles`` is a sorted tuple of ``(axis, factors)`` pairs so configs
    are hashable and order-independent.
    """

    tiles: tuple[tuple[str, tuple[int, ...]], ...]
    unroll: int = 0
    vector: int = 1
    splitk: int = 1

    @staticmethod
    def from_map(
        tile_map: dict[str, tuple[int, ...]],
        unroll: int = 0,
        vector: int = 1,
        splitk: int = 1,
    ) -> "ScheduleConfig":
        """Build a config from an axis -> factors mapping."""
        tiles = tuple(sorted((a, tuple(f)) for a, f in tile_map.items()))
        return ScheduleConfig(tiles, unroll=unroll, vector=vector, splitk=splitk)

    @property
    def tile_map(self) -> dict[str, tuple[int, ...]]:
        """Axis -> factors mapping."""
        return dict(self.tiles)

    def factors(self, axis: str) -> tuple[int, ...]:
        """Factors of one axis."""
        for a, f in self.tiles:
            if a == axis:
                return f
        raise ScheduleError(f"axis {axis!r} not in config")

    def with_tile(self, axis: str, factors: tuple[int, ...]) -> "ScheduleConfig":
        """Copy with one axis re-tiled."""
        tile_map = self.tile_map
        tile_map[axis] = tuple(factors)
        return ScheduleConfig.from_map(
            tile_map, unroll=self.unroll, vector=self.vector, splitk=self.splitk
        )

    def with_annotations(
        self,
        unroll: int | None = None,
        vector: int | None = None,
        splitk: int | None = None,
    ) -> "ScheduleConfig":
        """Copy with annotation fields replaced."""
        return replace(
            self,
            unroll=self.unroll if unroll is None else unroll,
            vector=self.vector if vector is None else vector,
            splitk=self.splitk if splitk is None else splitk,
        )

    @cached_property
    def key(self) -> str:
        """Stable identity string (for hashing and record files).

        Cached per instance: the search hot path asks for keys of the
        same elite / drafted configs across many rounds.
        """
        tiles = ";".join(f"{a}:{'x'.join(map(str, f))}" for a, f in self.tiles)
        return f"{tiles}|u{self.unroll}|v{self.vector}|s{self.splitk}"

    def __str__(self) -> str:
        return self.key
