"""Gradient-based multi-task trial allocation (Ansor Section 6).

Pruner reuses Ansor's task scheduler (paper Algorithm 1, line 8): each
round it allocates the next batch of trials to the subgraph that most
improves the end-to-end objective ``f = sum_i w_i * best_i``.  The
gradient for a task blends

* a *history* term — the recent rate of improvement per round, and
* an *optimistic* term — the gain if the task could still approach a
  roofline-like floor of its best latency,

so stagnating tasks decay and promising or under-explored tasks win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.search.records import RecordLog
from repro.search.task import TuningTask


@dataclass
class _TaskState:
    rounds: int = 0
    last_best: float = math.inf
    prev_best: float = math.inf  # best before the most recent round


class GradientTaskScheduler:
    """Selects which task receives the next tuning round."""

    def __init__(
        self,
        tasks: list[TuningTask],
        backward_window: int = 3,
        alpha: float = 0.2,
        beta: float = 2.0,
    ) -> None:
        if not tasks:
            raise ValueError("scheduler needs at least one task")
        self.tasks = list(tasks)
        self.alpha = alpha
        self.beta = beta
        self.backward_window = backward_window
        self._state: dict[str, _TaskState] = {t.key: _TaskState() for t in tasks}

    # ------------------------------------------------------------------
    def select(self, records: RecordLog) -> TuningTask:
        """Pick the next task (round-robin warm-up, then gradient).

        Warm-up gives every task without trials one round.  A task that
        ``records`` already covers (a warm-started log) needs none:
        otherwise a chain of one-round jobs, each with a new scheduler,
        would tune the first task forever.
        """
        for task in self.tasks:
            if self._state[task.key].rounds == 0 and not records.trials(task.key):
                return task
        best_task, best_grad = self.tasks[0], -math.inf
        for task in self.tasks:
            grad = self._gradient(task, records)
            if grad > best_grad:
                best_task, best_grad = task, grad
        return best_task

    def notify(self, task: TuningTask, records: RecordLog) -> None:
        """Inform the scheduler that ``task`` just received a round."""
        state = self._state[task.key]
        state.rounds += 1
        state.prev_best = state.last_best
        state.last_best = records.best_latency(task.key)

    # ------------------------------------------------------------------
    def _gradient(self, task: TuningTask, records: RecordLog) -> float:
        state = self._state[task.key]
        best = records.best_latency(task.key)
        if not math.isfinite(best):
            return math.inf  # nothing valid yet: explore it
        # history: recent improvement per round
        if math.isfinite(state.prev_best):
            history = (state.prev_best - best) / max(1, self.backward_window)
        else:
            history = best * 0.3
        # optimism: potential if latency kept shrinking like 1/rounds
        optimistic = best / (state.rounds + self.beta)
        gain = (1 - self.alpha) * history + self.alpha * optimistic
        return task.weight * max(gain, 0.0)
