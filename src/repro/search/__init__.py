"""Search infrastructure: tasks, records, policies, scheduler, tuner.

* :mod:`repro.search.task` — :class:`TuningTask` binds a workload to a
  device and a generated schedule space.
* :mod:`repro.search.records` — the measured-trial log (:class:`RecordLog`,
  column chunks of measured batches; :class:`TuningRecord` is only what
  ``RecordLog.best`` answers) and tuning curves.
* :mod:`repro.search.policy` — the per-round candidate proposers:
  :class:`AnsorPolicy` (evolutionary search scoring *every* explored
  candidate with the learned model) and
  :class:`PrunerPolicy` (draft-then-verify, paper Algorithm 1).
* :mod:`repro.search.task_scheduler` — Ansor's gradient-based
  multi-task trial allocator.
* :mod:`repro.search.tuner` — the full-graph tuning loop with online /
  offline / MoA cost-model modes.
"""

from repro.search.task import TuningTask, make_tasks
from repro.search.records import RecordLog, TuningRecord
from repro.search.policy import AnsorPolicy, SearchPolicy
from repro.search.pruner_policy import PrunerPolicy
from repro.search.task_scheduler import GradientTaskScheduler
from repro.search.tuner import RoundProgress, TuneResult, Tuner

__all__ = [
    "TuningTask",
    "make_tasks",
    "TuningRecord",
    "RecordLog",
    "SearchPolicy",
    "AnsorPolicy",
    "PrunerPolicy",
    "GradientTaskScheduler",
    "Tuner",
    "TuneResult",
    "RoundProgress",
]
