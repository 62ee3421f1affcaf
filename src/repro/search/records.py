"""Tuning records: everything measured so far, plus tuning curves.

The log (R_tune of Algorithm 1) is columns.  Each measured batch lands
as one chunk — the lowered :class:`~repro.schedule.batch.CandidateBatch`
it was measured as, plus latency, sim-time and round arrays — and a warm
start logs one chunk per consecutive same-task run of its seed rows.
Nothing on the tuning loop unpacks a row into a scalar program: rows
serialize straight from the columns (:meth:`RecordLog.rows`), and only
:meth:`RecordLog.best` builds a :class:`TuningRecord`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import groupby
from operator import index

import numpy as np

from repro.errors import ScheduleError
from repro.schedule.batch import CandidateBatch, ConfigBatch, lower_batch
from repro.schedule.lower import LoweredProgram
from repro.schedule.space import ScheduleConfig, ScheduleSpace

#: Version of the on-disk record schema (see :mod:`repro.service.store`).
RECORD_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TuningRecord:
    """One measured trial (what :meth:`RecordLog.best` answers)."""

    task_key: str
    prog: LoweredProgram
    latency: float  # seconds; inf for invalid programs
    sim_time: float  # simulated wall clock at measurement
    round_index: int


def _integer(value: object) -> int:
    """A config integer of a stored row: ``64.0``, ``16.7``, ``"64"`` and
    ``true`` (``index(True) == 1``) raise :class:`TypeError`."""
    if isinstance(value, bool):
        raise TypeError("a bool is not a config integer")
    return index(value)


def _parse_row(row: object, spaces: dict[str, ScheduleSpace]) -> tuple | None:
    """``(task key, config, latency, sim time, round)`` of a serialized
    row; None for a malformed row or an unknown task."""
    task_key = row.get("task_key") if isinstance(row, dict) else None
    if not isinstance(task_key, str) or task_key not in spaces:
        return None
    try:
        cfg = row["config"]
        config = ScheduleConfig.from_map(
            {axis: tuple(map(_integer, factors)) for axis, factors in cfg["tiles"]},
            unroll=_integer(cfg["unroll"]),
            vector=_integer(cfg["vector"]),
            splitk=_integer(cfg["splitk"]),
        )
        latency, sim_time = float(row["latency"]), float(row["sim_time"])
        return task_key, config, latency, sim_time, np.int64(int(row["round_index"]))
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


def _lower_rows(
    space: ScheduleSpace, configs: list[ScheduleConfig]
) -> tuple[CandidateBatch | None, list[int]]:
    """The configs that still lower, as one batch, and their positions."""
    try:
        return lower_batch(space, configs), list(range(len(configs)))
    except ScheduleError:
        if len(configs) == 1:
            return None, []
    # a stale config fails its whole batch: lower the others without it
    kept = [at for at, c in enumerate(configs) if _lower_rows(space, [c])[1]]
    return (lower_batch(space, [configs[at] for at in kept]) if kept else None), kept


def _column(values, n: int, dtype) -> np.ndarray:
    """``values`` as an ``(n,)`` array; a scalar broadcasts over the rows."""
    return np.broadcast_to(np.array(values, dtype=dtype), (n,))


@dataclass(frozen=True, eq=False)
class _Chunk:
    """One measured batch of one task, in log order."""

    task_key: str
    batch: CandidateBatch  # lowered rows, with ``.configs``
    latency: np.ndarray
    sim_time: np.ndarray
    round_index: np.ndarray

    def __len__(self) -> int:
        return len(self.batch)

    def rows(self, start: int) -> list[dict]:
        """Rows ``start:`` serialized, in the store's key order."""
        configs = self.batch.configs
        out = []
        for i, latency, sim_time, round_index in zip(
            range(start, len(self)),
            self.latency[start:].tolist(),
            self.sim_time[start:].tolist(),
            self.round_index[start:].tolist(),
        ):
            config = configs.config(i)
            out.append(
                {
                    "v": RECORD_SCHEMA_VERSION,
                    "task_key": self.task_key,
                    "workload_key": configs.space.workload.key,
                    "config": {
                        "tiles": [[axis, list(factors)] for axis, factors in config.tiles],
                        "unroll": config.unroll,
                        "vector": config.vector,
                        "splitk": config.splitk,
                    },
                    "config_key": config.key,
                    # JSON-safe: non-finite latencies become strings
                    "latency": latency if math.isfinite(latency) else repr(latency),
                    "sim_time": sim_time,
                    "round_index": round_index,
                }
            )
        return out


class RecordLog:
    """Append-only store of measured trials (the R_tune of Algorithm 1).

    A list of column chunks in log order (the module docstring).  Per
    task it keeps the row keys (:meth:`ConfigBatch.row_keys`) of what was
    measured and the best ``(latency, chunk, row)``.
    """

    def __init__(self) -> None:
        self._chunks: list[_Chunk] = []
        self._rows: dict[str, set[bytes]] = {}
        self._best: dict[str, tuple[float, _Chunk, int]] = {}

    # ------------------------------------------------------------------
    def add(self, task_key: str, batch: CandidateBatch, latency, sim_time, round_index) -> None:
        """Log one measured batch of a task as a chunk.

        ``latency``, ``sim_time`` and ``round_index`` are per-row arrays
        or scalars, which broadcast over the batch's rows.
        """
        n = len(batch)
        if not n:
            return
        chunk = _Chunk(
            task_key,
            batch,
            _column(latency, n, np.float64),
            _column(sim_time, n, np.float64),
            _column(round_index, n, np.int64),
        )
        self._chunks.append(chunk)
        self._rows.setdefault(task_key, set()).update(batch.row_keys())
        # the first of equal latencies stays best, as row by row
        finite = np.where(np.isfinite(chunk.latency), chunk.latency, np.inf)
        row = int(np.argmin(finite))
        if finite[row] < self.best_latency(task_key):
            self._best[task_key] = (float(finite[row]), chunk, row)

    def seed_from(self, rows: Iterable[object], spaces: dict[str, ScheduleSpace]) -> int:
        """Warm-start this log from serialized rows (a job's seed rows).

        ``spaces`` maps task key -> schedule space.  Rows for unknown
        tasks, malformed rows (non-dicts, missing fields, non-integer
        config values) and rows whose config no longer lowers are
        skipped.  Each task's configs lower as one batch.  Rows that
        repeat a config the log holds for their task, or one seen
        earlier in ``rows``, are skipped, so re-seeding from a store
        that overlaps the log is harmless.  The rest are logged in row
        order, one chunk per consecutive same-task run.  Returns the
        number of rows logged.
        """
        parsed = [p for p in (_parse_row(row, spaces) for row in rows) if p]
        # parsed row -> (its task's lowered batch, its row in that batch)
        where: dict[int, tuple[CandidateBatch, int]] = {}
        for task_key in dict.fromkeys(p[0] for p in parsed):
            ats = [at for at, p in enumerate(parsed) if p[0] == task_key]
            batch, kept = _lower_rows(spaces[task_key], [parsed[at][1] for at in ats])
            where.update((ats[k], (batch, row)) for row, k in enumerate(kept))
        seen = {task_key: set(keys) for task_key, keys in self._rows.items()}
        picked = []
        for at in sorted(where):
            batch, row = where[at]
            keys = seen.setdefault(parsed[at][0], set())
            if batch.row_keys()[row] not in keys:
                keys.add(batch.row_keys()[row])
                picked.append(at)
        for task_key, run in groupby(picked, key=lambda at: parsed[at][0]):
            run = list(run)
            _, _, latency, sim_time, round_index = zip(*(parsed[at] for at in run))
            batch = where[run[0]][0].take([where[at][1] for at in run])
            self.add(task_key, batch, latency, sim_time, round_index)
        return len(picked)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(chunk) for chunk in self._chunks)

    def batches(self) -> list[CandidateBatch]:
        """The logged batches in log order (one per chunk)."""
        return [chunk.batch for chunk in self._chunks]

    def rows(self, start: int = 0) -> list[dict]:
        """Serialized rows from log position ``start`` on (the store's form)."""
        out, at = [], 0
        for chunk in self._chunks:
            out += chunk.rows(max(0, start - at))
            at += len(chunk)
        return out

    def best(self, task_key: str) -> TuningRecord | None:
        """Best measured trial of a task (None before any valid trial)."""
        if task_key not in self._best:
            return None
        latency, chunk, row = self._best[task_key]
        sim_time, round_index = chunk.sim_time[row].item(), chunk.round_index[row].item()
        return TuningRecord(task_key, chunk.batch.program(row), latency, sim_time, round_index)

    def best_latency(self, task_key: str) -> float:
        found = self._best.get(task_key)
        return found[0] if found else math.inf

    def best_configs(self, task_key: str, k: int = 5) -> ConfigBatch | None:
        """The task's ``k`` best distinct measured configs, best first
        (GA seeds); ties keep log order.  None before any trial."""
        chunks = [chunk for chunk in self._chunks if chunk.task_key == task_key]
        if not chunks:
            return None
        configs = ConfigBatch.concat([chunk.batch.configs for chunk in chunks])
        latency = np.concatenate([chunk.latency for chunk in chunks])
        finite = np.flatnonzero(np.isfinite(latency))
        ranked = configs.take(finite[np.argsort(latency[finite], kind="stable")])
        return ranked.take(ranked.first_rows()[:k])

    def measured_rows(self, task_key: str) -> set[bytes] | frozenset[bytes]:
        """Row keys of every config measured for a task (do not mutate)."""
        return self._rows.get(task_key, frozenset())

    def trials(self, task_key: str) -> int:
        """Number of distinct configs measured for a task."""
        return len(self._rows.get(task_key, ()))

    # ------------------------------------------------------------------
    # the e2e tracer binds this name (benchmarks/e2e/tracing.py, ROADMAP 1c)
    def training_data(self) -> tuple[np.ndarray, list[str]]:
        """(latencies, task keys) in log order; the tuner holds the features."""
        lats = np.concatenate([np.zeros(0), *(chunk.latency for chunk in self._chunks)])
        return lats, [chunk.task_key for chunk in self._chunks for _ in range(len(chunk))]


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
