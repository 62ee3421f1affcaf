"""Data primitives of the tuning service: records, checkpoints, jobs.

* :mod:`repro.service.store` — :class:`RecordStore` persists the rows a
  :class:`~repro.search.records.RecordLog` serializes as JSON-lines keyed
  by ``(workload key, device, method)``: append-only files with dedup,
  a versioned schema and per-task best-first lookup.
  :func:`~repro.service.store.rows_to_records` turns rows back into a
  seeded log.
* :mod:`repro.service.models` — :class:`ModelStore` persists cost-model
  checkpoints (``save_state``/``load_state`` dicts) beside the records,
  so warm-started runs restore the trained model too.
* :mod:`repro.service.jobs` — :class:`TuneJob` + a thread-safe priority
  :class:`JobQueue` with pending/running/done/failed states and retry.

All three keep their files through :mod:`repro.journal`, the one
persistence primitive (tolerant readers, append, atomic rewrite).

What drives them — the job state machine, its HTTP face, the runners
and the ``python -m repro.serve`` CLI — lives in :mod:`repro.serve`.
"""

from repro.service.jobs import JobQueue, JobState, TuneJob
from repro.service.models import ModelStore
from repro.service.store import RecordStore, StoreKey, store_key_for_tasks

__all__ = [
    "JobQueue",
    "JobState",
    "TuneJob",
    "ModelStore",
    "RecordStore",
    "StoreKey",
    "store_key_for_tasks",
]
