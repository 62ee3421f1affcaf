"""Persistent tuning-record store (JSON-lines on disk).

Every measured trial a tuning run pays for is evidence worth keeping:
re-running the same workload should start from what is already known
(the record-reuse idea behind offline cost models such as TLP, and what
PrediPrune exploits by caching verifier outcomes).  The store persists
the rows a :class:`~repro.search.records.RecordLog` serializes
(:meth:`~repro.search.records.RecordLog.rows`), keyed by
``(workload key, device, method)``:

* one JSON-lines file per store key, one row per trial,
* a record file is only ever appended to (:func:`repro.journal.
  append_lines`): nothing rewrites, reorders or evicts rows, reads take
  no lock and write nothing, and a file grows until an operator deletes
  it (the index tolerates a missing file),
* appends deduplicate on ``(task key, config key)``,
* rows carry a schema version (``v``); rows of any other version stay
  on disk and are skipped on load,
* programs are stored as their schedule config; a warm start lowers
  them again, one batch per task (a lowered program is a pure function
  of ``(space, config)``), into a seeded log (:func:`rows_to_records`).

The store is the persistence layer under :class:`repro.serve.engine.
JobEngine`: a lease ships a key's rows as a job's seed rows, and a
completion appends the rows the job measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.journal import (
    append_lines,
    file_lock,
    iter_jsonl,
    read_json_index,
    upsert_json_index,
)
from repro.search.records import RECORD_SCHEMA_VERSION, RecordLog
from repro.search.task import TuningTask
from repro.schedule.space import ScheduleSpace

_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _sanitize(text: str) -> str:
    return _UNSAFE.sub("_", text).strip("_") or "x"


def rows_to_records(
    rows: Iterable[object], spaces: dict[str, ScheduleSpace]
) -> RecordLog:
    """A :class:`RecordLog` seeded from raw rows (:meth:`RecordLog.seed_from`),
    so its ``len()`` counts the rows accepted: the shared tolerant path
    under the runner's warm start (seed rows arrive on the lease, not
    from a file) and the engine's best-schedule query.
    """
    log = RecordLog()
    log.seed_from(rows, spaces)
    return log


@dataclass(frozen=True)
class StoreKey:
    """Identity of one record file: (workload key, device, method)."""

    workload: str
    device: str
    method: str

    @property
    def filename(self) -> str:
        """Stable, filesystem-safe file name for this key.

        A digest suffix keeps distinct keys distinct even when
        sanitization collapses their readable parts.
        """
        raw = "\x1f".join((self.workload, self.device, self.method))
        digest = hashlib.sha1(raw.encode()).hexdigest()[:10]
        readable = "__".join(
            _sanitize(part)[:32] for part in (self.workload, self.device, self.method)
        )
        return f"{readable}__{digest}.jsonl"


def workload_fingerprint(tasks: Iterable[TuningTask]) -> str:
    """Order-independent identity of a set of weighted tuning tasks.

    Includes each task's schedule-space identity (tensorcore sketch,
    splitK menu): the same workload lowered through different sketches
    yields different programs, so records must not cross-seed between
    e.g. a CUDA-core and a TensorCore run of the same matmul.
    """
    parts = sorted(
        f"{t.workload.key}*{t.weight}"
        f"*tc{int(t.space.tensorcore)}*sk{t.space.splitk_options}"
        for t in tasks
    )
    return hashlib.sha1("|".join(parts).encode()).hexdigest()[:16]


def store_key_for_tasks(tasks: list[TuningTask], method: str) -> StoreKey:
    """The store key a tuning run over ``tasks`` reads and writes."""
    if not tasks:
        raise ValueError("store_key_for_tasks needs at least one task")
    return StoreKey(
        workload=workload_fingerprint(tasks),
        device=tasks[0].device.name,
        method=method,
    )


class RecordStore:
    """Append-only JSON-lines store of tuning records, one file per key.

    Thread-safe for use by a multi-worker service: appends and index
    updates are serialized on a per-store lock.  Rows whose schema
    version is not this code's, or whose config no longer lowers
    against the current sketch, are skipped on load rather than raised.
    """

    INDEX_NAME = "index.json"

    # One lock per store root, shared by every RecordStore instance in
    # the process: two engines over the same cache dir each build their
    # own store, and per-instance locks would not serialize their file
    # and index writes.
    _LOCKS: dict[Path, threading.Lock] = {}
    _LOCKS_GUARD = threading.Lock()

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        with RecordStore._LOCKS_GUARD:
            self._lock = RecordStore._LOCKS.setdefault(
                self.root.resolve(), threading.Lock()
            )

    # ------------------------------------------------------------------
    # paths and index
    # ------------------------------------------------------------------
    def path_for(self, key: StoreKey) -> Path:
        return self.root / key.filename

    def _index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    def keys(self) -> list[StoreKey]:
        """All store keys ever written to this root.

        Damaged index entries (non-dicts, missing identity fields) are
        skipped, not raised — the index is shared, hand-editable JSON;
        the next append to such a key repairs its entry.  Fields an
        earlier version kept there (its use-order stamp) are ignored.
        """
        out = []
        for entry in read_json_index(self._index_path()).values():
            if not isinstance(entry, dict):
                continue
            try:
                out.append(
                    StoreKey(
                        workload=entry["workload"],
                        device=entry["device"],
                        method=entry["method"],
                    )
                )
            except KeyError:
                continue
        return sorted(out, key=lambda k: k.filename)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, key: StoreKey, records: RecordLog) -> int:
        """Persist a log's rows, deduplicating against what the file
        holds (:meth:`append_rows` over :meth:`RecordLog.rows`).  Returns
        the number of rows actually written.
        """
        # only the e2e tracer binds this name (benchmarks/e2e/tracing.py,
        # ROADMAP 1c); nothing in src calls it
        return self.append_rows(key, records.rows())

    def append_rows(self, key: StoreKey, rows: Iterable[dict]) -> int:
        """Persist already-serialized record rows (the wire-ingest path).

        Remote runners ship fresh trials as :meth:`RecordLog.rows`
        rows; persisting them must not require re-lowering every config
        on the server.  Rows missing a ``task_key``/``config_key``
        identity are dropped, the rest deduplicate on it against the
        file, and rows are stamped with the current schema version if
        they carry none.  Returns the number of rows written.
        """
        rows = [dict(row) for row in rows if isinstance(row, dict)]
        rows = [
            row
            for row in rows
            if isinstance(row.get("task_key"), str)
            and isinstance(row.get("config_key"), str)
        ]
        if not rows:
            return 0  # fully-warm runs: skip the dedup scan entirely
        # create the root lazily, on first write: read-only commands
        # (status/export over a mistyped --cache-dir) must not mkdir
        self.root.mkdir(parents=True, exist_ok=True)
        with self._lock, file_lock(self.path_for(key)):
            path = self.path_for(key)
            # dedup against every parseable row, whatever its schema
            # version — a newer-versioned row still owns its identity
            seen = {
                (row.get("task_key"), row.get("config_key"))
                for row in self._iter_parsed(path)
            }
            fresh: list[str] = []
            for row in rows:
                ident = (row["task_key"], row["config_key"])
                if ident in seen:
                    continue
                seen.add(ident)
                row.setdefault("v", RECORD_SCHEMA_VERSION)
                fresh.append(json.dumps(row))
            append_lines(path, fresh)
            upsert_json_index(self._index_path(), key.filename, asdict(key))
            return len(fresh)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @staticmethod
    def _iter_parsed(path: Path) -> Iterable[dict]:
        """Every parseable dict row, regardless of schema version."""
        for _, row in iter_jsonl(path):
            if row is not None:
                yield row

    def load_rows(self, key: StoreKey) -> list[dict]:
        """Raw current-schema rows of one store key: one lock-free pass.

        Rows of any other schema version (and torn or non-dict lines)
        are skipped here and left on disk untouched — a read never
        writes, so a newer version sharing the file keeps its rows.
        """
        return [
            row
            for row in self._iter_parsed(self.path_for(key))
            if row.get("v") == RECORD_SCHEMA_VERSION
        ]

    def load_records(
        self, key: StoreKey, spaces: dict[str, ScheduleSpace]
    ) -> RecordLog:
        """A log of one key's rows, re-lowered against ``spaces``.

        ``spaces`` maps task key -> schedule space.  Rows for unknown
        tasks or with configs outside the current space are skipped.
        """
        # only the e2e tracer binds this name (benchmarks/e2e/tracing.py,
        # ROADMAP 1c); nothing in src calls it
        return rows_to_records(self.load_rows(key), spaces)

    def rows_by_task(self, key: StoreKey) -> dict[str, list[dict]]:
        """Valid (finite-latency) rows grouped per task, best first.

        One pass over the file; the single place that decides which
        rows count as query candidates (the engine's best_schedule
        builds on it).
        """
        grouped: dict[str, list[dict]] = {}
        for row in self.load_rows(key):
            task_key = row.get("task_key")
            try:
                latency = float(row["latency"])
            except (KeyError, TypeError, ValueError):
                continue
            if not math.isfinite(latency) or not isinstance(task_key, str):
                continue
            grouped.setdefault(task_key, []).append(row)
        for rows in grouped.values():
            rows.sort(key=lambda r: float(r["latency"]))
        return grouped

    def count(self, key: StoreKey) -> int:
        """Number of persisted rows for one key."""
        return len(self.load_rows(key))

    def approx_rows(self, key: StoreKey) -> int:
        """Cheap upper bound on a key's row count: raw non-empty lines,
        no JSON parsing.  Enough for sanity caps (the serving layer's
        checkpoint-rank clamp) without re-reading a large store on
        every completion."""
        path = self.path_for(key)
        if not path.exists():
            return 0
        with path.open("rb") as fh:
            return sum(1 for line in fh if line.strip())

    def stats(self) -> list[dict]:
        """Per-key summary (for ``repro.serve status`` / ``export``)."""
        out = []
        for key in self.keys():
            rows = self.load_rows(key)
            finite = [
                float(r["latency"])
                for r in rows
                if isinstance(r.get("latency"), (int, float))
                and math.isfinite(float(r["latency"]))
            ]
            out.append(
                {
                    "workload": key.workload,
                    "device": key.device,
                    "method": key.method,
                    "records": len(rows),
                    "best_latency": min(finite) if finite else None,
                }
            )
        return out
