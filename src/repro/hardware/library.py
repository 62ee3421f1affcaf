"""Vendor kernel-library surrogates (cuDNN / cuBLAS and friends).

The paper compares against hand-optimized libraries (through PyTorch,
TensorRT, Triton) and explains their advantages: deep per-kernel tuning,
**splitK** decompositions for long reduction axes, and **Winograd**
convolution — techniques outside TVM's simple multi-level-tiling space.

A :class:`LibrarySurrogate` models a library kernel as the best schedule
found by an exhaustive-ish deterministic search over an *extended*
space (splitK enabled), multiplied by a kernel-quality factor, with a
Winograd fast path for 3x3 stride-1 convolutions.  Results are cached
per (device, workload).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.hardware.device import DeviceSpec
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir.ops import Workload
from repro.rng import rng_for
from repro.schedule.batch import CandidateBatch, lower_batch
from repro.schedule.sampler import random_batch
from repro.schedule.sketch import generate_sketch


def aligned_mask(batch: CandidateBatch, device: DeviceSpec) -> np.ndarray:
    """Rows with warp-aligned, power-of-two tiles: a boolean mask.

    Threads per block are a warp multiple in [64, 512], and every tile
    factor but an axis's outermost (which absorbs an odd-sized extent)
    is a power of two; padded factor slots are 1, so they pass.  Library
    kernel inventories stock only such shapes — odd hand-rolled tiles a
    compiler could emit are not — which is why libraries dominate large
    regular GEMMs but can trail tuned code on small or irregular shapes
    (paper Figs. 9/11).  Roller enumerates the same rTiles.
    """
    threads = batch.threads
    inner = batch.configs.factors[:, :, 1:]
    return (
        (threads % device.warp_size == 0)
        & (threads >= 64)
        & (threads <= 512)
        & ((inner > 0) & (inner & (inner - 1) == 0)).all(axis=(1, 2))
    )


@dataclass(frozen=True)
class LibraryKernel:
    """Outcome of the library's internal kernel selection."""

    latency: float
    used_splitk: bool
    used_winograd: bool


class LibrarySurrogate:
    """Simulated vendor library: near-optimal kernels per operator."""

    def __init__(
        self,
        device: DeviceSpec,
        quality: float = 0.92,
        samples: int = 256,
        shortlist: int = 12,
        refine_rounds: int = 2,
        allow_splitk: bool = True,
        allow_winograd: bool = True,
    ) -> None:
        self.device = device
        self.quality = quality
        self.samples = samples
        self.shortlist = shortlist
        self.refine_rounds = refine_rounds
        self.allow_splitk = allow_splitk
        self.allow_winograd = allow_winograd
        self.simulator = GroundTruthSimulator(device)
        self._cache: dict[str, LibraryKernel] = {}

    # ------------------------------------------------------------------
    def kernel(self, workload: Workload, tensorcore: bool = False) -> LibraryKernel:
        """Best library kernel for a workload (cached)."""
        key = f"{workload.key}|tc={tensorcore}"
        if key not in self._cache:
            self._cache[key] = self._select(workload, tensorcore)
        return self._cache[key]

    def latency(self, workload: Workload, tensorcore: bool = False) -> float:
        """Library kernel latency in seconds."""
        return self.kernel(workload, tensorcore).latency

    # ------------------------------------------------------------------
    def _select(self, workload: Workload, tensorcore: bool) -> LibraryKernel:
        best, used_splitk = self._search(workload, tensorcore)
        used_winograd = False
        if self.allow_winograd and self._winograd_eligible(workload):
            # Winograd F(2x2, 3x3) cuts multiplies by 2.25x; transform
            # overheads keep the realized gain nearer 1.4x.
            wino = best * 0.72
            if wino < best:
                best = wino
                used_winograd = True
        return LibraryKernel(best * self.quality, used_splitk, used_winograd)

    def _winograd_eligible(self, workload: Workload) -> bool:
        if workload.tag != "conv2d":
            return False
        extents = workload.loop_extents()
        kernel = extents.get("r", 1)
        # stride is encoded in the input access pattern coefficient
        stride = 1
        for read in workload.reads:
            if read.tensor == "I":
                for dim in read.index:
                    for loop, coeff in dim:
                        if loop == "p":
                            stride = coeff
        return kernel == 3 and stride == 1

    def _search(self, workload: Workload, tensorcore: bool) -> tuple[float, bool]:
        """Heuristic kernel selection over the aligned inventory.

        Vendor libraries do not autotune per call: a heuristic ranks the
        stocked kernels and the dispatcher tries a short list.  We model
        the heuristic with the same analytical formula family the draft
        model uses; its imperfection is what lets tuned code win on
        unusual shapes while the library stays near-optimal on classic
        ones (paper Figures 9/11, Tables 6/8).
        """
        from repro.core.analyzer import SymbolBasedAnalyzer, is_launchable_mask

        space = generate_sketch(
            workload, tensorcore=tensorcore, allow_splitk=self.allow_splitk
        )
        rng = rng_for("library", self.device.name, workload.key, tensorcore)
        batch = lower_batch(space, random_batch(space, rng, self.samples * 4))
        launchable = is_launchable_mask(batch, self.device)
        aligned = launchable & aligned_mask(batch, self.device)
        if not aligned.any():  # degenerate shapes: fall back to any kernel
            aligned = launchable
        stocked = np.flatnonzero(aligned)[: self.samples]
        heuristic = SymbolBasedAnalyzer(self.device).latency_batch(batch)
        shortlist = stocked[np.argsort(heuristic[stocked], kind="stable")][: self.shortlist]
        latency = self.simulator.latency_batch(batch.take(shortlist))
        if latency.min(initial=math.inf) == math.inf:  # nothing valid to dispatch
            return math.inf, False
        best = int(np.argmin(latency))
        return float(latency[best]), bool(batch.splitk[shortlist[best]] > 1)
