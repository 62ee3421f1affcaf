"""The one persistence primitive: line journals and small JSON objects.

Everything this project keeps on disk is either a *journal* — a
JSON-lines file that only ever grows by appended lines (records,
traces, the job ledger, result summaries) — or one file rewritten
atomically (the two ``index.json`` files, a checkpoint blob).
This stdlib-only leaf module holds the handful of operations those
formats share, so each write boundary and each damage-tolerance rule
exists once:

* :func:`iter_jsonl` — the tolerant JSONL reader,
* :func:`append_lines` — the only way a journal grows,
* :func:`append_jsonl` — :func:`append_lines` for files several
  threads and processes write: rows rendered and appended under
  :func:`file_lock`, so file order is event order,
* :func:`atomic_write_bytes` / :func:`atomic_write_lines` — temp file
  + rename, for rewrites,
* :func:`read_json_index` / :func:`write_json_index` /
  :func:`upsert_json_index` — a JSON object file, read tolerantly.

Reads never write and never take a lock: appends add whole lines at
the end, rewrites go through a rename, so a lock-free reader sees a
prefix of complete lines plus at most one torn tail, which it skips.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from collections.abc import Callable, Iterable
from pathlib import Path

try:
    import fcntl
except ImportError:  # non-POSIX: fall back to in-process locking only
    fcntl = None

# Bytes that are not UTF-8 (disk damage, a foreign writer) must neither
# raise out of a reader nor be altered by a rewrite that preserves
# lines it cannot interpret: they round-trip as lone surrogates.
_TEXT = {"encoding": "utf-8", "errors": "surrogateescape"}


def iter_jsonl(path: Path) -> Iterable[tuple[str, dict | None]]:
    """``(raw line, parsed dict or None)`` per non-empty line of a file.

    The single tolerant-JSONL reader: torn writes and non-dict rows
    parse to ``None`` but are still yielded, so writers that rewrite a
    file can preserve lines they cannot interpret.
    """
    if not path.is_file():
        return
    with path.open(**_TEXT) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:  # JSONDecodeError, or a literal too large
                yield line, None
                continue
            yield line, row if isinstance(row, dict) else None


def append_lines(path: Path, lines: Iterable[str]) -> int:
    """Append lines to the end of a journal file, as one write; returns
    the bytes written.

    A crash mid-append leaves a torn final line with no newline.  The
    next append must not glue its first line onto that tail — the
    merged line would parse as neither — so when the file's last byte
    is not a newline the append starts on a fresh line; readers then
    skip the torn one and see every later row.
    """
    data = "".join(line + "\n" for line in lines).encode(**_TEXT)
    if not data:
        return 0
    with path.open("ab+") as fh:
        if fh.tell():
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                data = b"\n" + data
        return fh.write(data)  # append mode: lands at the end wherever we seeked


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write a file via a temp file + rename so lock-free readers never
    see a torn file and a crash mid-write loses nothing."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def atomic_write_lines(path: Path, lines: Iterable[str]) -> None:
    """:func:`atomic_write_bytes` of text lines."""
    atomic_write_bytes(path, "".join(line + "\n" for line in lines).encode(**_TEXT))


def read_json_index(path: Path) -> dict:
    """A JSON object file as a dict (empty on absence or damage).

    The single tolerant JSON-object reader, under both stores'
    indexes: shared, hand-editable files must read as
    "nothing there", not raise out of the serving hot path.
    """
    try:
        index = json.loads(path.read_text(**_TEXT))
    except (OSError, ValueError):
        return {}
    return index if isinstance(index, dict) else {}


def write_json_index(path: Path, index: dict[str, dict]) -> None:
    """Atomically rewrite a JSON index file.

    One line, no ``indent``: with ``indent`` set, ``json`` runs its
    pure-Python encoder, whose nested closures form reference cycles
    that every index write left for the garbage collector.
    """
    atomic_write_lines(path, [json.dumps(index, sort_keys=True)])


def upsert_json_index(path: Path, name: str, fields: dict) -> None:
    """Set ``fields`` on ``index[name]``, under the index file lock.

    An absent or damaged (non-dict) entry is replaced by ``fields``;
    fields of a healthy entry this version does not know are kept.
    The file is rewritten only when the entry actually changed.
    """
    with file_lock(path):
        index = read_json_index(path)
        entry = index.get(name)
        merged = {**entry, **fields} if isinstance(entry, dict) else dict(fields)
        if merged != entry:
            index[name] = merged
            write_json_index(path, index)


@contextlib.contextmanager
def file_lock(path: Path):
    """Advisory cross-process lock on a sidecar ``<path>.lock`` file.

    Serializes writers of files shared between processes (record
    files, the indexes, checkpoints, the job ledger).  No-op where
    ``fcntl`` is unavailable; in-process threads still need their own
    lock.
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


# In-process guard for append_jsonl: the cross-process file_lock is a
# no-op where fcntl is unavailable, so threads need this.
_LEDGER_LOCK = threading.Lock()


def append_jsonl(path: Path, rows: Callable[[], Iterable[dict]]) -> None:
    """Append ``rows()`` to a journal that several writers share.

    The one writer of the job ledger and the result summaries: each
    state change appends the changed rows and nothing is re-read, so a
    write costs the same however long the file has grown.  Readers keep
    the last complete row per ``job_id``.

    ``rows`` is called with the locks held: of two racing writers the
    one that appends last must also have looked last, or a stale
    ``running`` could land after a ``done``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with _LEDGER_LOCK, file_lock(path):
        append_lines(path, [json.dumps(row) for row in rows()])
