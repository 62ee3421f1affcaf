"""Per-round tuning traces: in-memory records + a rotating JSONL sink.

A :class:`RoundTrace` is the structured record of one tuning round:
which task ran, how long each pipeline stage took (draft / score /
lower / verify / measure / train), and how many candidates flowed
through each funnel stage (drafted -> gated -> measured).  The tuner
opens one per round; the stage spans and funnel counters in the search
layers find it through a thread-local (see :func:`current_trace`), so
policies stay ignorant of who is tracing them.

:class:`TraceSink` persists traces as one JSONL file per job under
``<cache>/traces/`` with a byte cap over the directory — oldest job
files rotate out first, and a single oversized file drops its oldest
lines — so a long-lived service's trace footprint stays bounded.
"""

from __future__ import annotations

import json
import math
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.journal import append_lines, atomic_write_lines, iter_jsonl

#: Default byte budget for a trace directory (plenty for thousands of
#: rounds; a round trace line is a few hundred bytes).
DEFAULT_TRACE_BYTES = 16 << 20


@dataclass
class RoundTrace:
    """Everything observed about one tuning round.

    ``stages`` maps stage name -> seconds (summed when a stage runs
    several times in a round, e.g. Ansor lowering per GA generation);
    ``funnel`` maps funnel stage -> candidate count; ``total`` is the
    wall-clock of the whole round.
    """

    round_index: int = 0
    task_key: str = ""
    total: float = 0.0
    stages: dict[str, float] = field(default_factory=dict)
    funnel: dict[str, int] = field(default_factory=dict)

    def add_stage(self, stage: str, seconds: float) -> None:
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds

    def add_count(self, stage: str, n: int) -> None:
        self.funnel[stage] = self.funnel.get(stage, 0) + int(n)

    def to_dict(self) -> dict:
        return {
            "round": self.round_index,
            "task": self.task_key,
            "total_s": self.total,
            "stages": dict(self.stages),
            "funnel": dict(self.funnel),
        }


# ----------------------------------------------------------------------
# thread-local current trace (spans/counters attach to it if present)
# ----------------------------------------------------------------------
_LOCAL = threading.local()


def current_trace() -> RoundTrace | None:
    """The innermost active trace on this thread, or None."""
    stack = getattr(_LOCAL, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def use_trace(trace: RoundTrace):
    """Make ``trace`` the thread's current trace for the block."""
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    stack.append(trace)
    try:
        yield trace
    finally:
        stack.pop()


# ----------------------------------------------------------------------
# JSONL sink with size-capped rotation
# ----------------------------------------------------------------------
class TraceSink:
    """Append-only JSONL trace store: one file per job, capped directory.

    Writes are cheap (open-append-close, one line) and crash-safe in
    the JSONL sense — a torn final line is skipped on read and the next
    write starts on a fresh line (:mod:`repro.journal`).  The sink
    keeps a running byte total of its directory — one scan at the first
    write, then each append adds its own bytes — and lists the
    directory again only when that total crosses the cap: whole files
    rotate out oldest-modified first (never the file just written); if
    the active file alone exceeds the cap, its oldest half is dropped
    by an atomic rewrite.  The cap is exact for one writer: bytes
    another sink or process adds to the same directory are counted at
    this sink's next scan, not before.  This is the one capped
    directory of a cache dir.
    """

    def __init__(
        self, root: str | Path, max_bytes: int = DEFAULT_TRACE_BYTES
    ) -> None:
        if max_bytes <= 0:
            raise ValueError(f"trace cap must be > 0 bytes, got {max_bytes}")
        self.root = Path(root).expanduser()
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        #: bytes under ``root`` as far as this sink knows; over any cap
        #: until the first write has scanned the directory
        self._bytes: float = math.inf

    def _path(self, job_id: str) -> Path:
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", str(job_id)) or "job"
        return self.root / f"{safe}.jsonl"

    def write(self, job_id: str, record: dict) -> None:
        """Append one trace record for ``job_id`` and enforce the cap."""
        path = self._path(job_id)
        line = json.dumps(record)
        with self._lock:
            self.root.mkdir(parents=True, exist_ok=True)
            self._bytes += append_lines(path, [line])
            if self._bytes > self.max_bytes:
                self._enforce_cap(keep=path)

    def _enforce_cap(self, keep: Path) -> None:
        """Rescan the directory and rotate until it fits the cap."""
        stats = sorted(
            ((p.stat(), p) for p in self.root.glob("*.jsonl") if p.is_file()),
            key=lambda entry: entry[0].st_mtime,
        )
        # a trim that dies below leaves the true total, so the next
        # write comes back here
        self._bytes = sum(stat.st_size for stat, _ in stats)
        for stat, path in stats:
            if self._bytes <= self.max_bytes:
                return
            if path == keep:
                continue
            path.unlink(missing_ok=True)
            self._bytes -= stat.st_size
        if self._bytes > self.max_bytes and keep.exists():
            # The active job alone blew the budget: keep its newest half.
            lines = [raw for raw, _ in iter_jsonl(keep)]
            atomic_write_lines(keep, lines[len(lines) // 2 :])
            self._bytes = keep.stat().st_size

    # ------------------------------------------------------------------
    def jobs(self) -> list[str]:
        """Job ids with persisted traces (file-name stems, sorted)."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.jsonl"))

    def read(self, job_id: str) -> list[dict]:
        """Every well-formed trace record of one job, in write order."""
        return [row for _, row in iter_jsonl(self._path(job_id)) if row is not None]

    def summarize(self) -> dict:
        """Aggregate stage seconds and funnel counts across all jobs.

        Returns ``{"rounds": n, "jobs": j, "stages": {stage: seconds},
        "funnel": {stage: count}, "total_s": seconds}`` — the data
        behind ``python -m repro.serve status --metrics``.
        """
        stages: dict[str, float] = {}
        funnel: dict[str, int] = {}
        rounds = 0
        total = 0.0
        jobs = self.jobs()
        for job_id in jobs:
            for row in self.read(job_id):
                rounds += 1
                # raw RoundTrace records carry "total_s"; RoundProgress
                # snapshots (the service/serve wire form) carry "round_s"
                seconds = row.get("total_s", row.get("round_s"))
                if isinstance(seconds, (int, float)):
                    total += float(seconds)
                row_stages = row.get("stages")
                if isinstance(row_stages, dict):
                    for stage, seconds in row_stages.items():
                        if isinstance(seconds, (int, float)):
                            stages[stage] = stages.get(stage, 0.0) + float(seconds)
                row_funnel = row.get("funnel")
                if isinstance(row_funnel, dict):
                    for stage, count in row_funnel.items():
                        if isinstance(count, (int, float)):
                            funnel[stage] = funnel.get(stage, 0) + int(count)
        return {
            "rounds": rounds,
            "jobs": len(jobs),
            "stages": stages,
            "funnel": funnel,
            "total_s": total,
        }
