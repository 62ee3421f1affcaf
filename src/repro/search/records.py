"""Tuning records: everything measured so far, plus tuning curves."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from operator import index

import numpy as np

from repro.schedule.batch import ConfigBatch
from repro.schedule.lower import LoweredProgram, lower
from repro.schedule.space import ScheduleConfig, ScheduleSpace

#: Version of the on-disk record schema (see :mod:`repro.service.store`).
RECORD_SCHEMA_VERSION = 1


def _encode_latency(latency: float) -> float | str:
    """JSON-safe latency: non-finite values become strings."""
    return latency if math.isfinite(latency) else repr(latency)


@dataclass(frozen=True)
class TuningRecord:
    """One measured trial."""

    task_key: str
    prog: LoweredProgram
    latency: float  # seconds; inf for invalid programs
    sim_time: float  # simulated wall clock at measurement
    round_index: int

    # ------------------------------------------------------------------
    # serialization (persistent record store)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable form; the program is stored as its config.

        The lowered program itself is *not* serialized — it is a pure
        function of ``(schedule space, config)``, so :meth:`from_dict`
        lowers the config against the task's space again.
        """
        config = self.prog.config
        return {
            "v": RECORD_SCHEMA_VERSION,
            "task_key": self.task_key,
            "workload_key": self.prog.workload.key,
            "config": {
                "tiles": [[axis, list(factors)] for axis, factors in config.tiles],
                "unroll": config.unroll,
                "vector": config.vector,
                "splitk": config.splitk,
            },
            "config_key": config.key,
            "latency": _encode_latency(self.latency),
            "sim_time": self.sim_time,
            "round_index": self.round_index,
        }

    @staticmethod
    def config_of(data: dict) -> ScheduleConfig:
        """The schedule config a row stores.

        Tile factors and annotations must be integers: a float such as
        ``64.0`` would pass validation (the products still match) and
        come back under a second config key, ``16.7`` would be cut to
        16 — both raise :class:`TypeError` here instead.
        """
        cfg = data["config"]
        return ScheduleConfig.from_map(
            {axis: tuple(map(index, factors)) for axis, factors in cfg["tiles"]},
            unroll=index(cfg["unroll"]),
            vector=index(cfg["vector"]),
            splitk=index(cfg["splitk"]),
        )

    @staticmethod
    def from_lowered(data: dict, prog: LoweredProgram) -> "TuningRecord":
        """A row's record, given the program its config lowers to."""
        return TuningRecord(
            task_key=data["task_key"],
            prog=prog,
            latency=float(data["latency"]),
            sim_time=float(data["sim_time"]),
            round_index=int(data["round_index"]),
        )

    @staticmethod
    def from_dict(data: dict, space: ScheduleSpace) -> "TuningRecord":
        """Rebuild one record by lowering its config against ``space``.

        Raises :class:`~repro.errors.ScheduleError` if the stored config
        no longer lies in the space (e.g. the sketch changed between
        versions) — callers typically skip such rows.  Many rows of one
        space are cheaper through :func:`repro.service.store.
        rows_to_records`, which lowers them as one batch.
        """
        return TuningRecord.from_lowered(
            data, lower(space, TuningRecord.config_of(data))
        )


class RecordLog:
    """Append-only store of measured trials (the R_tune of Algorithm 1)."""

    def __init__(self) -> None:
        self._records: list[TuningRecord] = []
        self._best: dict[str, TuningRecord] = {}
        # task key -> config key -> config, in first-measured order
        self._measured: dict[str, dict[str, ScheduleConfig]] = {}
        self._measured_rows: dict[str, set[bytes]] = {}

    # ------------------------------------------------------------------
    def add(self, record: TuningRecord) -> None:
        """Record one trial and update per-task bests."""
        self._records.append(record)
        config = record.prog.config
        self._measured.setdefault(record.task_key, {}).setdefault(config.key, config)
        best = self._best.get(record.task_key)
        if math.isfinite(record.latency) and (
            best is None or record.latency < best.latency
        ):
            self._best[record.task_key] = record

    def extend(self, records: Iterable[TuningRecord]) -> None:
        """Record every trial from any iterable of records."""
        for r in records:
            self.add(r)

    def seed_from(self, records: Iterable[TuningRecord]) -> int:
        """Warm-start this log from previously persisted records.

        Deduplicates on ``(task key, config key)`` so re-seeding from a
        store that overlaps what is already logged is harmless.  Returns
        the number of records actually added.
        """
        added = 0
        for r in records:
            if self.already_measured(r.task_key, r.prog.config.key):
                continue
            self.add(r)
            added += 1
        return added

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[TuningRecord]:
        return list(self._records)

    def best(self, task_key: str) -> TuningRecord | None:
        """Best measured trial of a task (None before any valid trial)."""
        return self._best.get(task_key)

    def best_latency(self, task_key: str) -> float:
        best = self._best.get(task_key)
        return best.latency if best else math.inf

    def best_configs(self, task_key: str, k: int = 5) -> list[LoweredProgram]:
        """Top-k measured programs of a task (for GA seeding)."""
        task_records = [
            r
            for r in self._records
            if r.task_key == task_key and math.isfinite(r.latency)
        ]
        task_records.sort(key=lambda r: r.latency)
        seen: set[str] = set()
        out = []
        for r in task_records:
            if r.prog.config.key not in seen:
                seen.add(r.prog.config.key)
                out.append(r.prog)
            if len(out) == k:
                break
        return out

    def already_measured(self, task_key: str, config_key: str) -> bool:
        return config_key in self._measured.get(task_key, ())

    def measured_rows(self, task_key: str, space: ScheduleSpace) -> set[bytes]:
        """Row identities of every config measured for a task (do not mutate).

        The :meth:`ConfigBatch.row_keys` form of :meth:`already_measured`,
        for selection over whole drafted batches; ``space`` is the task's.
        Configs logged since the last call — by :meth:`add` or
        :meth:`seed_from` alike — are packed then, so a round pays for
        its own ``measure_per_round`` records only.
        """
        rows = self._measured_rows.setdefault(task_key, set())
        configs = self._measured.get(task_key, ())
        if len(rows) < len(configs):
            fresh = list(islice(configs.values(), len(rows), None))
            rows.update(ConfigBatch.from_configs(space, fresh).row_keys())
        return rows

    def trials(self, task_key: str) -> int:
        """Number of trials spent on a task."""
        return len(self._measured.get(task_key, ()))

    # ------------------------------------------------------------------
    # the e2e tracer binds this name (benchmarks/e2e/tracing.py, ROADMAP 1c)
    def training_data(self) -> tuple[np.ndarray, list[str]]:
        """(latencies, task keys) in log order; the tuner holds the features."""
        lats = np.array([r.latency for r in self._records])
        keys = [r.task_key for r in self._records]
        return lats, keys


@dataclass
class CurvePoint:
    """One point of a tuning curve."""

    sim_time: float
    trials: int
    latency: float  # end-to-end weighted latency estimate (seconds)


def time_to_reach(curve: list[CurvePoint], target_latency: float) -> float:
    """First simulated time at which the curve reaches ``target_latency``.

    Returns inf if never reached — the measurement behind the paper's
    search-time speedup numbers (Figure 7, Tables 5/9).
    """
    for point in curve:
        if point.latency <= target_latency:
            return point.sim_time
    return math.inf
