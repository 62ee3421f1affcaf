"""Analytical GPU ground truth — the stand-in for physical hardware.

The paper's premise (Section 4.1) is that tensor-program performance
*aligns with the accelerator's hierarchical parallel units*: the
hardware-aware penalties explain most of the latency, and a learned
cost model captures what remains.  The simulator is built exactly that
way.  Its latency shares the penalty **skeleton** with the Symbol-based
Analyzer:

    compute ~ S8 / (T_p * prod(P_c) * extra_c)
    memory  ~ S5 * bytes / (T_m * prod(P_m) * extra_m)

and then diverges from the draft model through effects the closed-form
penalties cannot express:

* ``extra_c``: occupancy saturation, instruction-level parallelism from
  register tiles, unroll quality, register-spill slowdown, TensorCore
  fragment alignment;
* ``extra_m``: bandwidth-saturation from occupancy, vector-load bonus;
* latency composition ``max(c, m) + 0.3 * min(c, m)`` (overlap) rather
  than the analyzer's plain sum;
* kernel-launch and splitK reduction overheads;
* a smooth **device-specific residual**: a small fixed random network
  (seeded by the device name) over structural features, scaled by
  ``device.residual_scale``.

The residual is deterministic and *learnable* (a function of the same
quantities the cost-model features expose) but not expressible by the
draft model — exactly the relationship between empirical formulas and
learned cost models that draft-then-verify exploits.  It also differs
across devices, creating the cross-platform gap MoA addresses.

Measurement noise is *not* applied here (the simulator is the "true"
device); :mod:`repro.hardware.measure` adds it.

The implementation is array-native: :meth:`GroundTruthSimulator.run_batch`
evaluates a whole :class:`~repro.schedule.batch.CandidateBatch` in a
handful of numpy ops (one einsum for the residual net), and the scalar
:meth:`~GroundTruthSimulator.run` is a thin wrapper over a one-row
batch.  The residual net deliberately uses ``einsum`` rather than
``@``: BLAS gemm picks different accumulation orders for different
batch shapes, while einsum keeps every row's dot products
shape-independent — which is what makes ``run_batch`` bit-identical to
``run`` regardless of batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.cache import register_lru
from repro.core.penalty import compute_penalties
from repro.core.symbols import extract_symbols_batch
from repro.hardware.device import DeviceSpec
from repro.rng import rng_for
from repro.schedule.batch import CandidateBatch
from repro.schedule.lower import LoweredProgram

_RESIDUAL_FEATURES = 14
_RESIDUAL_HIDDEN = 10

#: Invalidity reason codes of :class:`SimulationResultBatch` (0 = valid);
#: precedence mirrors the scalar check order: threads > smem > empty > occ.
REASON_OK = 0
REASON_THREADS = 1
REASON_SMEM = 2
REASON_EMPTY = 3
REASON_OCCUPANCY = 4


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of running one program on the simulated device."""

    latency: float  # seconds (math.inf when invalid)
    valid: bool
    compute_time: float = 0.0
    memory_time: float = 0.0
    occupancy: float = 0.0
    reason: str = ""


@dataclass
class SimulationResultBatch:
    """Outcomes of a whole candidate batch, one array per field.

    ``reason_code`` holds the ``REASON_*`` codes; the human-readable
    strings of the scalar path are materialized lazily by
    :meth:`reason` / :meth:`row` (only invalid candidates that someone
    actually inspects pay for string formatting).
    """

    device: DeviceSpec
    latency: np.ndarray  # (N,) seconds, inf when invalid
    valid: np.ndarray  # (N,) bool
    compute_time: np.ndarray  # (N,) 0.0 when invalid
    memory_time: np.ndarray  # (N,) 0.0 when invalid
    occupancy: np.ndarray  # (N,) 0.0 when invalid
    reason_code: np.ndarray  # (N,) REASON_* codes
    threads: np.ndarray  # (N,) for reason formatting
    smem_bytes: np.ndarray  # (N,) for reason formatting

    def __len__(self) -> int:
        return len(self.latency)

    def reason(self, i: int) -> str:
        """Scalar-identical invalidity reason of candidate ``i``."""
        code = int(self.reason_code[i])
        if code == REASON_OK:
            return ""
        if code == REASON_THREADS:
            return (
                f"threads per block {int(self.threads[i])} exceeds "
                f"{self.device.max_threads_per_block}"
            )
        if code == REASON_SMEM:
            return (
                f"shared memory {int(self.smem_bytes[i])}B exceeds "
                f"{self.device.smem_per_block}B"
            )
        if code == REASON_EMPTY:
            return "empty launch configuration"
        return "zero occupancy"

    def row(self, i: int) -> SimulationResult:
        """Scalar :class:`SimulationResult` view of candidate ``i``."""
        return SimulationResult(
            latency=float(self.latency[i]),
            valid=bool(self.valid[i]),
            compute_time=float(self.compute_time[i]),
            memory_time=float(self.memory_time[i]),
            occupancy=float(self.occupancy[i]),
            reason=self.reason(i),
        )


@lru_cache(maxsize=32)
def _residual_net(device_name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed random 2-layer net defining the device residual."""
    rng = rng_for("residual-net", device_name)
    w1 = rng.normal(0.0, 0.9, size=(_RESIDUAL_HIDDEN, _RESIDUAL_FEATURES))
    b1 = rng.normal(0.0, 0.3, size=_RESIDUAL_HIDDEN)
    w2 = rng.normal(0.0, 0.9, size=_RESIDUAL_HIDDEN)
    return w1, b1, w2


register_lru("hardware.simulator._residual_net", _residual_net)


def residual_features_batch(batch: CandidateBatch) -> np.ndarray:
    """Structural feature matrix ``(N, 14)`` feeding the device residual.

    Log-scaled quantities mirroring what the dataflow features expose;
    learned cost models can therefore *learn* the residual while the
    closed-form draft model cannot.
    """

    def lg(x: np.ndarray) -> np.ndarray:
        return np.log2(1.0 + np.maximum(0.0, x)) / 16.0

    return np.stack(
        [
            lg(batch.acc_regs),
            lg(batch.reg_elems),
            lg(batch.smem_elems),
            lg(batch.threads),
            lg(batch.vthreads),
            lg(batch.grid),
            lg(batch.trans_span),
            lg(batch.thread_compute),
            lg(batch.traffic_elems / np.maximum(1.0, batch.flops) * 1e3),
            lg(batch.unroll),
            lg(batch.vector),
            lg(batch.splitk),
            lg(batch.arith_intensity),
            batch.tensorcore.astype(np.float64),
        ],
        axis=1,
    )


def residual_features(prog: LoweredProgram) -> np.ndarray:
    """Structural feature vector of one program (one-row batch view)."""
    return residual_features_batch(CandidateBatch.from_programs([prog]))[0]


class GroundTruthSimulator:
    """Deterministic latency oracle for one device."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    # ------------------------------------------------------------------
    def run(self, prog: LoweredProgram) -> SimulationResult:
        """Simulate one program; deterministic for a given (device, program)."""
        return self.run_batch(CandidateBatch.from_programs([prog])).row(0)

    def run_batch(self, batch: CandidateBatch) -> SimulationResultBatch:
        """Simulate a whole batch in a few numpy ops.

        Bit-identical, per candidate, to the scalar :meth:`run` (the
        measurement-equivalence suite asserts this): every arithmetic
        step keeps the scalar path's operation order, invalid rows are
        masked out after the fact rather than branched around, and the
        residual net runs as a shape-independent einsum.
        """
        d = self.device
        n = len(batch)
        threads = batch.threads
        smem_bytes = batch.smem_elems * batch.dtype_bytes

        # -- validity (assignment order = reversed scalar precedence) --
        reason = np.zeros(n, dtype=np.int64)
        reason[(batch.grid < 1) | (threads < 1)] = REASON_EMPTY
        reason[smem_bytes > d.smem_per_block] = REASON_SMEM
        reason[threads > d.max_threads_per_block] = REASON_THREADS

        # -- occupancy (divisors clamped so invalid rows stay finite) --
        thr = np.maximum(1, threads)
        warps = -(-thr // d.warp_size)
        per_thread_budget = d.regs_per_sm // thr
        reg_cap = np.maximum(1, np.minimum(d.max_regs_per_thread, per_thread_budget))
        regs_per_thread = np.minimum(batch.reg_elems, reg_cap)
        limits = np.minimum(d.max_blocks_per_sm, d.max_threads_per_sm // thr)
        limits = np.minimum(
            limits, d.regs_per_sm // np.maximum(1, regs_per_thread * thr)
        )
        limits = np.minimum(
            limits,
            np.where(
                smem_bytes > 0,
                d.smem_per_sm // np.maximum(1, smem_bytes),
                np.iinfo(np.int64).max,
            ),
        )
        blocks_per_sm = np.maximum(0, limits)
        occupancy = np.minimum(1.0, (blocks_per_sm * warps) / d.max_warps_per_sm)
        reason[(reason == REASON_OK) & (blocks_per_sm < 1)] = REASON_OCCUPANCY
        valid = reason == REASON_OK

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            symbols = extract_symbols_batch(batch)
            pen = compute_penalties(symbols, d, batch.dtype_bytes)

            # -- compute term --
            peak = np.full(n, float(d.peak_flops))
            if batch.tensorcore.any():
                # peak_for(True) raises on non-TC devices; only consult
                # it when the batch actually contains TC candidates.
                peak[batch.tensorcore] = d.peak_for(True)
            skeleton_c = pen.compute_product()
            occ_factor = occupancy / (occupancy + 0.15) * 1.15
            inner_tile = batch.acc_regs / np.maximum(1, batch.vthreads)
            ilp = np.minimum(
                1.0, 0.60 + 0.10 * np.log2(1.0 + np.minimum(inner_tile, 128.0))
            )
            unroll_bonus = np.where(
                batch.unroll >= 64, 1.0, np.where(batch.unroll >= 16, 0.97, 0.92)
            )
            spill = np.where(
                batch.reg_elems > reg_cap,
                (reg_cap / np.maximum(1, batch.reg_elems)) ** 1.5,
                1.0,
            )
            extra_c = occ_factor * ilp * unroll_bonus * spill
            compute_time = batch.flops / (peak * np.maximum(skeleton_c * extra_c, 1e-6))

            # -- memory term --
            skeleton_m = pen.memory_product()
            saturation = np.minimum(1.0, (occupancy + 0.15) / 0.60)
            vec_bonus = np.minimum(
                1.15, 1.0 + 0.05 * np.log2(np.maximum(1, batch.vector))
            )
            extra_m = saturation * vec_bonus
            traffic_bytes = batch.traffic_elems * batch.dtype_bytes
            memory_time = traffic_bytes / (
                d.peak_bw * np.maximum(skeleton_m * extra_m, 1e-6)
            )

            # -- composition + residual + overheads --
            core = np.maximum(compute_time, memory_time) + 0.3 * np.minimum(
                compute_time, memory_time
            )
            core = core * self._residual_factor_batch(batch)
            overhead = np.full(n, float(d.launch_overhead))
            reduce_bytes = batch.output_elems * batch.splitk * batch.dtype_bytes
            overhead = np.where(
                batch.splitk > 1,
                overhead + (d.launch_overhead + reduce_bytes / (d.peak_bw * 0.6)),
                overhead,
            )
            latency = core + overhead

        return SimulationResultBatch(
            device=d,
            latency=np.where(valid, latency, math.inf),
            valid=valid,
            compute_time=np.where(valid, compute_time, 0.0),
            memory_time=np.where(valid, memory_time, 0.0),
            occupancy=np.where(valid, occupancy, 0.0),
            reason_code=reason,
            threads=threads,
            smem_bytes=smem_bytes,
        )

    def latency(self, prog: LoweredProgram) -> float:
        """Shorthand: latency in seconds (inf when invalid)."""
        return self.run(prog).latency

    def latency_batch(self, batch: CandidateBatch) -> np.ndarray:
        """Latencies of a whole batch in seconds (inf when invalid)."""
        return self.run_batch(batch).latency

    # ------------------------------------------------------------------
    def _residual_factor_batch(self, batch: CandidateBatch) -> np.ndarray:
        w1, b1, w2 = _residual_net(self.device.name)
        phi = residual_features_batch(batch)
        hidden = np.tanh(np.einsum("nf,hf->nh", phi, w1) + b1)
        r = np.tanh(np.einsum("nh,h->n", hidden, w2))
        return np.exp(self.device.residual_scale * r)
