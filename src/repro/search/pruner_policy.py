"""PrunerPolicy: the Draft-then-Verify exploration mechanism (Algorithm 1).

Per tuning round:

1. **Draft** — the Latent Schedule Explorer runs a GA over the schedule
   space guided by the Symbol-based Analyzer only (thousands of
   formula evaluations, each ~microseconds) and emits S_spec;
2. a small random sample is unioned in (Algorithm 1, line 10) to keep
   exploration stochastic;
3. **Verify** — the learned cost model (PaCM) scores only the drafted
   set (|S_spec| = 512 at paper scale, vs ~8,000 candidates Ansor
   scores per round), and the top predictions are measured.

The inference reduction is charged on the simulated clock, which is
where the paper's compilation-time savings (Tables 1 and 7) come from.

Both stages run on the batched pipeline: the draft GA operates on
factor tensors end to end and hands S_spec over as a
:class:`~repro.schedule.batch.ConfigBatch`, and the verify stage is one
``lower_batch`` + ``predict_batch`` call over the drafted set.  Rows
are told apart by their bytes (``row_keys()``), and the picks go into
the record log as the arrays they are: no config object is built.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.config import SearchConfig
from repro.core.analyzer import SymbolBasedAnalyzer
from repro.core.lse import LatentScheduleExplorer
from repro.costmodel.base import CostModel
from repro.schedule.batch import CandidateBatch, ConfigBatch
from repro.schedule.sampler import random_batch
from repro.search.policy import SearchPolicy
from repro.search.records import RecordLog
from repro.search.task import TuningTask
from repro.timemodel import SimClock


class PrunerPolicy(SearchPolicy):
    """Draft-then-verify candidate proposal."""

    def __init__(
        self,
        task: TuningTask,
        model: CostModel,
        search: SearchConfig | None = None,
        clock: SimClock | None = None,
        analyzer: SymbolBasedAnalyzer | None = None,
    ) -> None:
        super().__init__(task, model, search=search, clock=clock)
        self.analyzer = analyzer or SymbolBasedAnalyzer(task.device)
        self.explorer = LatentScheduleExplorer(self.analyzer, self.search)

    def propose_batch(
        self, records: RecordLog, rng: np.random.Generator
    ) -> CandidateBatch | None:
        space = self.task.space

        # ----- Draft: LSE under the Symbol-based Analyzer -----
        seeds = records.best_configs(self.task.key, k=5)
        with obs.span("draft"):
            result = self.explorer.explore(space, rng, seeds=seeds)
        self.clock.charge_sa(result.n_evals)

        parts: list[ConfigBatch] = []
        if len(result.spec):
            parts.append(result.spec)
        n_random = int(round(self.search.random_fraction * self.search.spec_size))
        if n_random:
            parts.append(random_batch(space, rng, n_random))
        if not parts:
            return None
        drafted = ConfigBatch.concat(parts)
        obs.funnel("drafted", len(drafted))
        draft = self._lower_valid_batch(drafted)
        if not len(draft):
            return None

        # ----- Verify: learned model over the drafted set only -----
        if len(records) == 0:
            # Cold start (pure online mode): the learned model is not
            # yet trained — rank by draft-model fitness.
            fitness = dict(zip(result.spec.row_keys(), result.scores.tolist()))
            scores = np.array([fitness.get(key, -1e18) for key in draft.row_keys()])
        else:
            self.clock.charge_inference(
                self.model.feature_kind, self.model.kind, len(draft)
            )
            with obs.span("verify"):
                scores = self.model.predict_batch(draft)
        return self._select_top_batch(draft, scores, records, rng)
