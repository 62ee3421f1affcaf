"""Persistent tuning-record store (JSON-lines on disk).

Every measured trial a tuning run pays for is evidence worth keeping:
re-running the same workload should start from what is already known
(the record-reuse idea behind offline cost models such as TLP, and what
PrediPrune exploits by caching verifier outcomes).  The store persists
:class:`~repro.search.records.TuningRecord` rows keyed by
``(workload key, device, method)``:

* one JSON-lines file per store key, one row per trial,
* rows carry a schema version (``v``) so future layouts can coexist,
* appends deduplicate on ``(task key, config key)``,
* programs are stored as their schedule config and re-lowered on load
  (a lowered program is a pure function of ``(space, config)``).

The store is the persistence layer under :class:`repro.serve.engine.
JobEngine`; :func:`repro.api.tune_subgraphs` uses it directly for
its ``cache_dir=`` fast path.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import re
import threading
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass
from pathlib import Path

try:
    import fcntl
except ImportError:  # non-POSIX: fall back to in-process locking only
    fcntl = None

from repro.errors import LoweringError, ScheduleError
from repro.search.records import RECORD_SCHEMA_VERSION, TuningRecord
from repro.search.task import TuningTask
from repro.schedule.space import ScheduleConfig, ScheduleSpace

_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _sanitize(text: str) -> str:
    return _UNSAFE.sub("_", text).strip("_") or "x"


def iter_jsonl(path: Path) -> Iterable[tuple[str, dict | None]]:
    """``(raw line, parsed dict or None)`` per non-empty line of a file.

    The single tolerant-JSONL reader: torn writes and non-dict rows
    parse to ``None`` but are still yielded, so writers that rewrite a
    file can preserve lines they cannot interpret.
    """
    if not path.exists():
        return
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                yield line, None
                continue
            yield line, row if isinstance(row, dict) else None


def atomic_write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write lines via a temp file + rename so lock-free readers never
    see a torn file and a crash mid-write loses nothing."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    tmp.replace(path)


def read_json_index(path: Path) -> dict[str, dict]:
    """A JSON index file as a dict (empty on absence or damage).

    The shared tolerant reader under :class:`RecordStore` and
    :class:`repro.service.models.ModelStore` indexes.
    """
    if not path.exists():
        return {}
    try:
        index = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return index if isinstance(index, dict) else {}


def write_json_index(path: Path, index: dict[str, dict]) -> None:
    """Atomically rewrite a JSON index file."""
    atomic_write_lines(path, [json.dumps(index, indent=2, sort_keys=True)])


def tolerant_count(value) -> int:
    """A non-negative int out of possibly-damaged JSON (0 otherwise).

    The single damage-tolerance rule for index counters and checkpoint
    trial counts: shared, hand-editable files must read as "never
    used", not raise out of the serving hot path.
    """
    try:
        return max(0, int(value))
    except (TypeError, ValueError):
        return 0


def entry_counter(entry) -> int:
    """An index entry's ``last_used`` counter, 0 for any damage."""
    if not isinstance(entry, dict):
        return 0
    return tolerant_count(entry.get("last_used", 0))


def stamp_most_recent(index: dict[str, dict], filename: str) -> bool:
    """Give ``index[filename]`` a uniquely-top ``last_used`` counter.

    The shared LRU-stamp rule of :meth:`RecordStore.touch` and
    :meth:`repro.service.models.ModelStore.touch`.  ``last_used`` is a
    monotonic counter (not wall time), so ordering survives clock skew
    across workers.  The stamp is skipped only when the entry already
    *uniquely* holds the top counter: after a crash-interrupted rewrite
    several entries can share it, and a shared top means this entry is
    not reliably the most recent.  Damaged entries count as never used
    (and are replaced by a fresh dict when stamped).  Returns True when
    the entry was restamped (the caller must rewrite the index).
    """
    entry = index[filename]
    if not isinstance(entry, dict):
        entry = index[filename] = {}
    own = entry_counter(entry)
    others = max(
        (entry_counter(e) for name, e in index.items() if name != filename),
        default=0,
    )
    if own > others:
        return False
    entry["last_used"] = max(own, others) + 1
    return True


@contextlib.contextmanager
def file_lock(path: Path):
    """Advisory cross-process lock on a sidecar ``<path>.lock`` file.

    Serializes read-merge-write cycles on files shared between
    processes (record files, the job ledger).  No-op where ``fcntl``
    is unavailable; in-process threads still need their own lock.
    """
    if fcntl is None:
        yield
        return
    lock_path = path.with_name(path.name + ".lock")
    with lock_path.open("w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


# In-process guard for merge_jsonl's read-merge-write cycle: the
# cross-process file_lock is a no-op where fcntl is unavailable, so
# threads need this.
_LEDGER_LOCK = threading.Lock()


def merge_jsonl(path: Path, snapshot: Callable[[], Iterable[dict]]) -> None:
    """Merge ``snapshot()``'s rows into a JSON-lines file keyed by ``job_id``.

    The one writer of the job ledger and the result summaries: entries
    already on disk are kept (earlier runs and other processes sharing
    the file stay visible), entries with the same ``job_id`` are
    replaced rather than duplicated, and the file is rewritten
    atomically.  The merge works on raw parsed rows, so lines a newer
    version wrote (extra fields, other shapes, no ``job_id``) survive
    the rewrite even though this version's readers skip them.

    ``snapshot`` is called with the locks held: of two racing writers
    the one that writes last must also have looked last, or a stale
    ``running`` could overwrite a ``done``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with _LEDGER_LOCK, file_lock(path):
        preserved: list[str] = []
        merged: dict[str, dict] = {}
        for line, entry in iter_jsonl(path):
            if entry is not None and isinstance(entry.get("job_id"), str):
                merged[entry["job_id"]] = entry
            else:
                preserved.append(line)
        for row in snapshot():
            merged[row["job_id"]] = row
        atomic_write_lines(
            path, preserved + [json.dumps(entry) for entry in merged.values()]
        )


def rows_to_records(
    rows: Iterable[dict], spaces: dict[str, ScheduleSpace]
) -> list[TuningRecord]:
    """Reconstruct records from raw rows by re-lowering their configs.

    ``spaces`` maps task key -> schedule space.  Rows for unknown tasks
    or with configs outside the current space are skipped — the shared
    tolerant path under :meth:`RecordStore.load_records` and the remote
    runner's warm-start (seed rows arrive over the wire, not from a
    file).
    """
    out: list[TuningRecord] = []
    for row in rows:
        space = spaces.get(row.get("task_key"))
        if space is None:
            continue
        try:
            out.append(TuningRecord.from_dict(row, space))
        except (ScheduleError, LoweringError, KeyError, TypeError, ValueError):
            continue
    return out


# ----------------------------------------------------------------------
# schema migrations
# ----------------------------------------------------------------------
def _migrate_v0(row: dict) -> dict | None:
    """Upgrade a v0 row (pre-versioning) to the v1 schema.

    v0 rows predate the ``v`` field and differ from v1 in three ways:
    latency lived under ``time``, ``config.tiles`` was an axis ->
    factors mapping rather than a sorted pair list, and there was no
    ``config_key`` (dedup re-derived it on every read).  Returns None
    when the row is too damaged to upgrade.
    """
    try:
        cfg = row["config"]
        tiles = cfg["tiles"]
        if isinstance(tiles, dict):
            tile_map = {axis: tuple(int(f) for f in fs) for axis, fs in tiles.items()}
        else:  # early v0 writers already used pair lists
            tile_map = {axis: tuple(int(f) for f in fs) for axis, fs in tiles}
        config = ScheduleConfig.from_map(
            tile_map,
            unroll=int(cfg.get("unroll", 0)),
            vector=int(cfg.get("vector", 1)),
            splitk=int(cfg.get("splitk", 1)),
        )
        latency = row["latency"] if "latency" in row else row["time"]
        return {
            "v": 1,
            "task_key": row["task_key"],
            "workload_key": row.get("workload_key", ""),
            "config": {
                "tiles": [[axis, list(factors)] for axis, factors in config.tiles],
                "unroll": config.unroll,
                "vector": config.vector,
                "splitk": config.splitk,
            },
            "config_key": config.key,
            "latency": latency,
            "sim_time": float(row.get("sim_time", 0.0)),
            "round_index": int(row.get("round_index", 0)),
        }
    except (KeyError, TypeError, ValueError):
        return None


#: from-version -> upgrade function producing the next version.  A row
#: at version N runs the chain N, N+1, ... until it reaches
#: :data:`RECORD_SCHEMA_VERSION`; a gap in the chain (or an upgrade
#: returning None) leaves the row as-is on disk and skipped on load.
_MIGRATIONS: dict[int, callable] = {0: _migrate_v0}


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
    version is newer than this code, or whose config no longer lowers
    against the current sketch, are skipped on load rather than raised.
    """

    INDEX_NAME = "index.json"

    # One lock per store root, shared by every RecordStore instance in
    # the process: concurrent workers each build their own store over
    # the same cache dir (api.tune_subgraphs does), and per-instance
    # locks would not serialize their file and index writes.
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

    def _read_index(self) -> dict[str, dict]:
        return read_json_index(self._index_path())

    def _write_index(self, index: dict[str, dict]) -> None:
        write_json_index(self._index_path(), index)

    def _register(self, key: StoreKey) -> None:
        with file_lock(self._index_path()):
            index = self._read_index()
            if key.filename not in index:
                index[key.filename] = asdict(key)
                self._write_index(index)

    @staticmethod
    def _entry_key(entry: dict) -> StoreKey:
        """StoreKey of one index entry (ignoring bookkeeping fields)."""
        return StoreKey(
            workload=entry["workload"],
            device=entry["device"],
            method=entry["method"],
        )

    def keys(self) -> list[StoreKey]:
        """All store keys ever written to this root.

        Damaged index entries (non-dicts, missing identity fields) are
        skipped, not raised — the index is shared, hand-editable JSON.
        """
        out = []
        for entry in self._read_index().values():
            if not isinstance(entry, dict):
                continue
            try:
                out.append(self._entry_key(entry))
            except KeyError:
                continue
        return sorted(out, key=lambda k: k.filename)

    def touch(self, key: StoreKey) -> None:
        """Mark a key as just-used (drives LRU ordering in :meth:`compact`).

        Stamping follows :func:`stamp_most_recent`: the rewrite is
        skipped only when this entry uniquely holds the top counter.
        """
        with file_lock(self._index_path()):
            index = self._read_index()
            if not isinstance(index.get(key.filename), dict):
                # absent or damaged: repair with the full key identity,
                # not a bare counter dict (keys() needs the fields)
                index[key.filename] = asdict(key)
            if stamp_most_recent(index, key.filename):
                self._write_index(index)

    def last_used(self, key: StoreKey) -> int:
        """The key's last-use counter (0 if never touched)."""
        entry = self._read_index().get(key.filename, {})
        return int(entry.get("last_used", 0))

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, key: StoreKey, records: Iterable[TuningRecord]) -> int:
        """Persist records, deduplicating against what the file holds
        (:meth:`append_rows` over their serialized form).  Returns the
        number of rows actually written.
        """
        return self.append_rows(key, [record.to_dict() for record in records])

    def append_rows(self, key: StoreKey, rows: Iterable[dict]) -> int:
        """Persist already-serialized record rows (the wire-ingest path).

        Remote runners ship fresh trials as ``TuningRecord.to_dict``
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
            written = 0
            with path.open("a", encoding="utf-8") as fh:
                for row in rows:
                    ident = (row["task_key"], row["config_key"])
                    if ident in seen:
                        continue
                    seen.add(ident)
                    row.setdefault("v", RECORD_SCHEMA_VERSION)
                    fh.write(json.dumps(row) + "\n")
                    written += 1
            self._register(key)
            return written

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @staticmethod
    def _iter_parsed(path: Path) -> Iterable[dict]:
        """Every parseable dict row, regardless of schema version."""
        for _, row in iter_jsonl(path):
            if row is not None:
                yield row

    @staticmethod
    def _row_version(row: dict) -> int | None:
        try:
            return int(row.get("v", 0))
        except (TypeError, ValueError):
            return None

    @classmethod
    def _migrated(cls, row: dict) -> dict | None:
        """A row upgraded to the current schema, or None if impossible.

        Rows written by a *newer* schema are also None here — they are
        preserved on disk (rewrites keep their raw lines) but never
        loaded by this version.
        """
        version = cls._row_version(row)
        if version is None:
            return None
        while version < RECORD_SCHEMA_VERSION:
            upgrade = _MIGRATIONS.get(version)
            if upgrade is None:
                return None
            row = upgrade(row)
            if row is None:
                return None
            version = cls._row_version(row)
            if version is None:
                return None
        return row if version == RECORD_SCHEMA_VERSION else None

    def upgrade_in_place(self, key: StoreKey) -> int:
        """Rewrite old-schema rows of one file in the current schema.

        Run on open (:meth:`load_rows`): rows an earlier version wrote
        are upgraded through :data:`_MIGRATIONS` and written back, so
        evidence is carried forward across ``v`` bumps instead of
        silently dropped.  Rows that cannot be upgraded — and rows a
        *newer* version wrote — keep their original lines.  Returns the
        number of rows rewritten.
        """
        path = self.path_for(key)
        if not path.exists():
            return 0
        with self._lock, file_lock(path):
            upgraded = 0
            lines: list[str] = []
            for raw, row in iter_jsonl(path):
                if row is None:
                    lines.append(raw)
                    continue
                version = self._row_version(row)
                if version is None or version >= RECORD_SCHEMA_VERSION:
                    lines.append(raw)
                    continue
                migrated = self._migrated(row)
                if migrated is None:
                    lines.append(raw)
                    continue
                lines.append(json.dumps(migrated))
                upgraded += 1
            if upgraded:
                atomic_write_lines(path, lines)
            return upgraded

    def load_rows(self, key: StoreKey) -> list[dict]:
        """Raw (schema-upgraded) rows of one store key.

        Opening a file that holds old-version rows rewrites them on
        disk in the current schema (see :meth:`upgrade_in_place`), so
        later readers — including dedup in :meth:`append` — see
        current-schema rows.  The steady state (no old rows) is a
        single lock-free pass; the rewrite only happens when an
        old-version row was actually seen.
        """
        rows: list[dict] = []
        old_seen = False
        for row in self._iter_parsed(self.path_for(key)):
            version = self._row_version(row)
            if version is not None and version < RECORD_SCHEMA_VERSION:
                old_seen = True
            migrated = self._migrated(row)
            if migrated is not None:
                rows.append(migrated)
        if old_seen:
            self.upgrade_in_place(key)  # re-reads under the file lock
        return rows

    def load_records(
        self, key: StoreKey, spaces: dict[str, ScheduleSpace]
    ) -> list[TuningRecord]:
        """Reconstruct records by re-lowering configs against ``spaces``.

        ``spaces`` maps task key -> schedule space.  Rows for unknown
        tasks or with configs outside the current space are skipped.
        """
        out = rows_to_records(self.load_rows(key), spaces)
        if out:
            self.touch(key)  # warm-start reads drive the LRU ordering
        return out

    def rows_by_task(self, key: StoreKey) -> dict[str, list[dict]]:
        """Valid (finite-latency) rows grouped per task, best first.

        One pass over the file; the single place that decides which
        rows count as query candidates (best_rows and the service's
        best_schedule both build on it).
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

    def best_rows(self, key: StoreKey) -> dict[str, dict]:
        """Lowest-latency valid row per task."""
        return {
            task_key: rows[0] for task_key, rows in self.rows_by_task(key).items()
        }

    def best_row(self, key: StoreKey, task_key: str | None = None) -> dict | None:
        """Lowest-latency valid row of a key (optionally one task only)."""
        per_task = self.best_rows(key)
        if task_key is not None:
            return per_task.get(task_key)
        return min(
            per_task.values(), key=lambda row: float(row["latency"]), default=None
        )

    def count(self, key: StoreKey) -> int:
        """Number of persisted rows for one key."""
        return len(self.load_rows(key))

    def approx_rows(self, key: StoreKey) -> int:
        """Cheap upper bound on a key's row count: raw non-empty lines,
        no JSON parsing or migration.  Enough for sanity caps (the
        serving layer's checkpoint-rank clamp) without re-reading a
        large store on every completion."""
        path = self.path_for(key)
        if not path.exists():
            return 0
        with path.open(encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self, max_rows: int) -> int:
        """Size-cap eviction: keep at most ``max_rows`` rows store-wide.

        Eviction policy (first ROADMAP cache-policy follow-on):

        * the best finite-latency row of every ``(store key, task)`` is
          always kept — a compacted store never forgets its best
          schedules;
        * the remaining budget goes to the other rows, preferring keys
          with a more recent ``last_used`` stamp (see :meth:`touch`)
          and, within a key, more recently appended rows;
        * unparseable lines (torn writes, unknown schemas) are dropped
          during the rewrite — they were never loadable evidence.

        Files are rewritten atomically under the store lock.  Returns
        the number of rows evicted.
        """
        if max_rows < 0:
            raise ValueError(f"max_rows must be >= 0, got {max_rows}")
        with self._lock:
            index = self._read_index()  # one parse; last_used per entry
            keys = self.keys()
            raws: dict[str, list[str]] = {}  # filename -> parseable raw lines
            keep: dict[str, set[int]] = {}  # filename -> positions to keep
            evictable: list[tuple[int, int, str]] = []  # (recency, pos, file)
            total = 0
            for key in keys:
                recency = int(index.get(key.filename, {}).get("last_used", 0))
                lines: list[str] = []
                best: dict[str, tuple[float, int]] = {}  # task -> (lat, pos)
                for raw, row in iter_jsonl(self.path_for(key)):
                    if row is None:
                        continue
                    pos = len(lines)
                    lines.append(raw)
                    task_key = row.get("task_key")
                    try:
                        latency = float(row.get("latency"))
                    except (TypeError, ValueError):
                        continue
                    if not math.isfinite(latency) or not isinstance(task_key, str):
                        continue
                    if task_key not in best or latency < best[task_key][0]:
                        best[task_key] = (latency, pos)
                total += len(lines)
                raws[key.filename] = lines
                keep[key.filename] = {pos for _, pos in best.values()}
                evictable.extend(
                    (recency, pos, key.filename)
                    for pos in range(len(lines))
                    if pos not in keep[key.filename]
                )
            if total <= max_rows:
                return 0
            n_protected = sum(len(s) for s in keep.values())
            budget = max(0, max_rows - n_protected)
            # most-recently-used keys and most recent rows survive first
            evictable.sort(key=lambda t: (t[0], t[1]), reverse=True)
            for _, pos, filename in evictable[:budget]:
                keep[filename].add(pos)
            evicted = len(evictable) - min(budget, len(evictable))
            if not evicted:
                return 0
            for key in keys:
                lines = raws[key.filename]
                kept = keep[key.filename]
                if len(kept) == len(lines):
                    continue
                snapshot = set(lines)
                kept_raws = {lines[p] for p in kept}
                path = self.path_for(key)
                # Re-read under the file lock: another process may have
                # appended rows since the snapshot — those must survive
                # the rewrite (eviction only applies to snapshot rows).
                with file_lock(path):
                    current = [
                        raw for raw, row in iter_jsonl(path) if row is not None
                    ]
                    atomic_write_lines(
                        path,
                        [
                            raw
                            for raw in current
                            if raw in kept_raws or raw not in snapshot
                        ],
                    )
            return evicted

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
