"""Symbol-based Analyzer — the draft model (paper Section 4.1, Eq. 1).

An empirical-formula cost model: no learned weights, no feature
extraction, no GPU inference.  Given the penalty terms it estimates

    U_p = T_p * prod(P_{l_i,c})          (peak-compute utilization)
    U_m = T_m * prod(P_{l_i,m})          (peak-bandwidth utilization)
    L_c = S8 / U_p,   L_m = S5 / U_m,    L_total = sum_i (L_c + L_m)

``L_total`` is a *ranking* score, not a calibrated latency: the paper
uses it only as the GA fitness during the Latent Schedule Explorer and
to pick S_spec.  The class exposes ablation switches used by Table 10
(``w/o P_{l_i,c}`` and ``w/o P_{l_i,m}``).

Eq. 1 is written once, over a :class:`~repro.schedule.batch.
CandidateBatch` (:meth:`SymbolBasedAnalyzer.latency_batch`); one
program is its one-row batch, ``prog.row``.
``tests/fixtures/draft_golden.json`` pins latency and score on four
devices under both switches.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from typing import TYPE_CHECKING

import numpy as np

from repro.core.penalty import compute_penalties
from repro.core.symbols import extract_symbols_batch
from repro.schedule.batch import CandidateBatch, lower_batch
from repro.schedule.lower import LoweredProgram
from repro.schedule.space import ScheduleConfig, ScheduleSpace

if TYPE_CHECKING:  # runtime-free to avoid a core <-> hardware import cycle
    from repro.hardware.device import DeviceSpec


def is_launchable(prog: LoweredProgram, device: "DeviceSpec") -> bool:
    """Static hard-constraint check (what TVM rejects before compiling).

    Thread-count and shared-memory limits are architectural constants,
    so both the draft model and every search policy may filter on them
    without consulting the device *measurements*.
    """
    return (
        1 <= prog.threads_per_block <= device.max_threads_per_block
        and prog.smem_bytes <= device.smem_per_block
        and prog.grid >= 1
    )


def is_launchable_mask(batch: CandidateBatch, device: "DeviceSpec") -> np.ndarray:
    """Vectorized :func:`is_launchable`: boolean mask over a batch."""
    return (
        (batch.threads >= 1)
        & (batch.threads <= device.max_threads_per_block)
        & (batch.smem_bytes <= device.smem_per_block)
        & (batch.grid >= 1)
    )


#: Fewest configs :func:`distinct_launchable` draws and lowers at once.
_MIN_DRAW = 32


def distinct_launchable(
    space: ScheduleSpace,
    device: "DeviceSpec",
    draw: Callable[[int], list[ScheduleConfig]],
    want: int,
    cap: int,
) -> CandidateBatch:
    """Up to ``want`` distinct launchable rows of a config stream, in draw order.

    ``draw(k)`` returns the stream's next ``k`` configs.  Rows are
    accepted in draw order, skipping a row not launchable or already
    accepted, until ``want`` are accepted or ``cap`` configs are drawn:
    what drawing, lowering and checking one config at a time accepts.
    Each chunk is lowered in one call, and the last may draw past the
    stop point — callers own the generator behind ``draw`` and never
    draw from it again.
    """
    chunks = [lower_batch(space, [])]
    seen: set[bytes] = set()
    accepted = drawn = 0
    while accepted < want and drawn < cap:
        k = min(cap - drawn, max(want - accepted, _MIN_DRAW))
        batch = lower_batch(space, draw(k))
        drawn += k
        rows = np.flatnonzero(is_launchable_mask(batch, device))
        rows = rows[batch.configs.take(rows).first_rows()]
        keys = batch.row_keys()
        fresh = [i for i in rows.tolist() if keys[i] not in seen][: want - accepted]
        seen.update(keys[i] for i in fresh)
        chunks.append(batch.take(fresh))
        accepted += len(fresh)
    return CandidateBatch.concat(chunks)


@dataclass
class SymbolBasedAnalyzer:
    """Draft model: maps lowered candidates to an estimated cost.

    Parameters
    ----------
    device:
        Target device abstraction (supplies T_p, T_m and the penalty
        parameters).
    use_compute_penalty / use_memory_penalty:
        Ablation switches (Table 10).  Disabling a group replaces its
        penalty product with 1.0.
    """

    device: "DeviceSpec"
    use_compute_penalty: bool = True
    use_memory_penalty: bool = True

    def latency_batch(self, batch: CandidateBatch) -> np.ndarray:
        """Estimated total latency L_total of every candidate (seconds;
        ranking-grade only).  One GA generation is a handful of numpy
        ops."""
        symbols = extract_symbols_batch(batch)
        pen = compute_penalties(symbols, self.device, batch.dtype_bytes)

        # not ``peak_for(True)``: it raises on a device without TensorCores
        # even when no row asks for them.  A TensorCore row there gets peak
        # 0, i.e. infinite latency and a score of -inf.
        peak = np.where(
            batch.tensorcore, self.device.tc_peak_flops, self.device.peak_flops
        )
        compute_product = pen.compute_product() if self.use_compute_penalty else 1.0
        memory_product = pen.memory_product() if self.use_memory_penalty else 1.0

        u_p = peak * np.maximum(compute_product, 1e-12)
        u_m = self.device.peak_bw * np.maximum(memory_product, 1e-12)

        with np.errstate(divide="ignore"):  # the peak-0 rows above
            l_c = symbols.s8_l2_compute / u_p
        l_m = symbols.s5_l2_traffic * batch.dtype_bytes / u_m
        return l_c + l_m

    def score_batch(self, batch: CandidateBatch) -> np.ndarray:
        """Hardware fitness (higher is better): ``-latency`` per
        candidate, ``-inf`` where unlaunchable, so that the GA and
        PriorFilter never keep such a row."""
        scores = -self.latency_batch(batch)
        scores[~is_launchable_mask(batch, self.device)] = -math.inf
        return scores
