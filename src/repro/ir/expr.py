"""Loop dimensions and tensor access patterns.

A workload is a perfectly nested loop over *spatial* dimensions (one
point per output element) and *reduction* dimensions.  Every input
tensor is read through an :class:`AccessPattern`: each tensor index is a
linear combination of loop variables, which is expressive enough for

* matmul        ``A[i, k]``            -> ``((('i', 1),), (('k', 1),))``
* conv2d input  ``I[n, c, p*s+r, q*s+t]`` -> compound terms with strides

From a pattern we can compute the *footprint* of any rectangular tile of
the iteration space — the quantity behind the paper's L0/L1 allocation
symbols (S1, S3) and L2 traffic symbol (S5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import WorkloadError

# One tensor index dimension: sum of (loop_name * coeff) terms.
IndexDim = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class LoopDim:
    """A named loop with a positive integer extent."""

    name: str
    extent: int

    def __post_init__(self) -> None:
        if self.extent < 1:
            raise WorkloadError(f"loop {self.name!r} must have extent >= 1, got {self.extent}")

    def __str__(self) -> str:
        return f"{self.name}[{self.extent}]"


@dataclass(frozen=True)
class AccessPattern:
    """How one tensor is indexed by the loop nest.

    Attributes
    ----------
    tensor:
        Buffer name (e.g. ``"A"``).
    index:
        Per tensor dimension, a tuple of ``(loop_name, coefficient)``
        terms; the index value is their weighted sum.
    dtype_bytes:
        Element size in bytes (4 for float32, 2 for float16).
    """

    tensor: str
    index: tuple[IndexDim, ...]
    dtype_bytes: int = 4

    def loops(self) -> set[str]:
        """Names of all loop variables this access depends on."""
        return {name for dim in self.index for name, _ in dim}

    def dim_extent(self, dim: IndexDim, tile: Mapping[str, int]) -> int:
        """Span of one tensor index dimension over a tile.

        ``tile`` maps loop names to tile sizes.  Loops absent from the
        map contribute their full... no — absent loops contribute 1
        (they are fixed at a single value inside the tile).
        """
        span = 1
        for loop_name, coeff in dim:
            t = tile.get(loop_name, 1)
            span += coeff * (t - 1)
        return span

    def footprint(self, tile: Mapping[str, int]) -> int:
        """Number of distinct elements touched by a rectangular tile."""
        elems = 1
        for dim in self.index:
            elems *= self.dim_extent(dim, tile)
        return elems

    def innermost_span(self, tile: Mapping[str, int]) -> int:
        """Contiguous span along the tensor's last (fastest) dimension.

        Drives the L2 transaction symbol S7: short innermost spans mean
        poorly coalesced global memory accesses.
        """
        if not self.index:
            return 1
        return self.dim_extent(self.index[-1], tile)

    def reuse(self, tile: Mapping[str, int], all_loops: Mapping[str, int]) -> float:
        """Average number of times each touched element is read in a tile.

        Computed as (iteration points in the tile) / footprint, where
        the iteration space is restricted to ``all_loops``.
        """
        points = 1
        for name, t in all_loops.items():
            points *= tile.get(name, 1) if name in tile else 1
        fp = self.footprint(tile)
        return points / max(1, fp)
