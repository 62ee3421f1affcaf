"""Search policies: per-round candidate proposal.

:class:`AnsorPolicy` reproduces Ansor's exploration: an evolutionary
search whose fitness is the *learned cost model*, evaluated on **every**
explored candidate each generation.  That inference volume is exactly
the "Exploration" cost of the paper's Table 1 — and what Pruner's
draft-then-verify policy (:mod:`repro.search.pruner_policy`) eliminates.

Both policies run on the batched candidate pipeline: populations are
:class:`~repro.schedule.batch.ConfigBatch` factor tensors, lowering and
scoring are single array calls (``lower_batch`` / ``predict_batch``),
and :class:`~repro.schedule.space.ScheduleConfig` objects are only
materialized for the few candidates that reach the measurement batch.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro import obs
from repro.config import SearchConfig
from repro.core.analyzer import is_launchable_mask
from repro.costmodel.base import CostModel
from repro.schedule.batch import CandidateBatch, ConfigBatch
from repro.schedule.evolve import BestPool, next_generation, seeded_population
from repro.schedule.memo import lower_batch_memo
from repro.schedule.sampler import random_batch
from repro.schedule.space import ScheduleConfig
from repro.search.records import RecordLog
from repro.search.task import TuningTask
from repro.timemodel import SimClock


class SearchPolicy(ABC):
    """Proposes candidates to measure for one task, one round at a time."""

    def __init__(
        self,
        task: TuningTask,
        model: CostModel,
        search: SearchConfig | None = None,
        clock: SimClock | None = None,
    ) -> None:
        self.task = task
        self.model = model
        self.search = search or SearchConfig()
        self.clock = clock if clock is not None else SimClock()

    @abstractmethod
    def propose_batch(
        self, records: RecordLog, rng: np.random.Generator
    ) -> CandidateBatch | None:
        """Measurement batch for this round (<= search.measure_per_round).

        None means "nothing to measure" — distinct from an empty batch
        only in that no arrays are materialized for it.
        """

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _lower_valid_batch(
        self, configs: ConfigBatch | list[ScheduleConfig]
    ) -> CandidateBatch:
        """Lower a batch (via the cross-round memo), keep launchable rows.

        This is the verify-path lowering entry: recurring drafted
        candidates (GA elites, warm-start seeds) hit the
        :data:`~repro.schedule.memo.LOWERED_ROWS` memo and skip
        re-lowering entirely.  Telemetry: the span times the (memoized)
        lowering, and the funnel counts rows in (``lowered``) vs
        launchable rows out (``gated``).
        """
        with obs.span("lower"):
            lowered = lower_batch_memo(self.task.space, configs)
        kept = lowered.take(is_launchable_mask(lowered, self.task.device))
        obs.funnel("lowered", len(lowered))
        obs.funnel("gated", len(kept))
        return kept

    def _select_indices(
        self,
        keys: list[bytes],
        scores: np.ndarray,
        records: RecordLog,
        rng: np.random.Generator,
    ) -> list[int]:
        """Pick measurement-batch indices: greedy top + epsilon random.

        ``keys`` are the candidates' ``row_keys()``; rows that repeat in
        the batch or that ``records`` already holds for this task are
        never picked.

        With ``eps_greedy > 0`` exploration never silently shuts off:
        small measurement rounds used to round the epsilon share down
        to zero.  For ``k > 1`` at least one slot is always random; for
        ``k == 1`` there is no room for a dedicated slot, so the single
        slot goes random with probability ``eps_greedy`` instead — the
        same expected exploration rate, without turning every round
        into a random measurement (which is what rounding would do for
        any ``eps_greedy >= 0.5``).
        """
        k = self.search.measure_per_round
        eps = self.search.eps_greedy
        if k == 1:
            n_random = 1 if (eps > 0 and rng.random() < eps) else 0
        else:
            n_random = max(0, int(round(k * eps)))
            if eps > 0 and n_random == 0:
                n_random = 1
        measured = records.measured_rows(self.task.key, self.task.space)
        picked: list[int] = []
        seen: set[bytes] = set()
        for i in np.argsort(-np.asarray(scores)).tolist():
            # bound checked before appending: with n_random == k (the
            # k == 1 exploratory round) no greedy pick may leak in
            if len(picked) >= k - n_random:
                break
            key = keys[i]
            if key in seen or key in measured:
                continue
            seen.add(key)
            picked.append(i)
        if n_random:
            pool = [
                i
                for i, key in enumerate(keys)
                if key not in seen and key not in measured
            ]
            if pool:
                extra = rng.choice(len(pool), size=min(n_random, len(pool)), replace=False)
                picked += [pool[int(i)] for i in extra]
        return picked[:k]

    def _select_top_batch(
        self,
        batch: CandidateBatch,
        scores: np.ndarray,
        records: RecordLog,
        rng: np.random.Generator,
    ) -> CandidateBatch | None:
        """Array-native selection: the picked rows as a sub-batch."""
        picked = self._select_indices(batch.row_keys(), scores, records, rng)
        if not picked:
            return None
        return batch.take(np.array(picked, dtype=np.int64))

    def _seeded_population(
        self, records: RecordLog, rng: np.random.Generator
    ) -> ConfigBatch:
        """Initial GA population, seeded from the log's best eight."""
        seeds = [p.config for p in records.best_configs(self.task.key, k=8)]
        size = self.search.population
        return seeded_population(self.task.space, rng, size, seeds, max(1, size // 16))


class AnsorPolicy(SearchPolicy):
    """Evolutionary search guided by the learned cost model (Ansor).

    Every generation runs feature extraction + model inference over the
    full population; all scored candidates accumulate into the selection
    pool.  With the paper's settings this means thousands of model
    inferences per tuning round.  The GA is the one LSE runs
    (:mod:`repro.schedule.evolve`); this loop scores ``ga_steps``
    generations where LSE's scores ``ga_steps + 1``.
    """

    def propose_batch(
        self, records: RecordLog, rng: np.random.Generator
    ) -> CandidateBatch | None:
        space, search = self.task.space, self.search
        population = self._seeded_population(records, rng)

        if len(records) == 0:
            # Cold start: no trained model; measure random candidates.
            obs.funnel("drafted", len(population))
            batch = self._lower_valid_batch(population)
            scores = rng.random(len(batch))
            return self._select_top_batch(batch, scores, records, rng)

        pool = BestPool()
        for _ in range(search.ga_steps):
            # Every generation's population enters the funnel: Ansor
            # "drafts" (and scores) far more candidates per round than
            # Pruner — the asymmetry the funnel counters exist to show.
            obs.funnel("drafted", len(population))
            batch = self._lower_valid_batch(population)
            if not len(batch):
                population = random_batch(space, rng, search.population)
                continue
            # Ansor applies the learned model to *all* explored candidates.
            self.clock.charge_inference(
                self.model.feature_kind, self.model.kind, len(batch)
            )
            with obs.span("score"):
                scores = self.model.predict_batch(batch)
            assert batch.configs is not None
            pool.merge(batch.configs, scores)
            population = next_generation(
                space,
                batch.configs,
                np.argsort(-scores),
                search.population,
                search.mutation_prob,
                rng,
            )

        if not pool:
            return None
        # Every pooled candidate already passed the launchability mask;
        # selection only needs row keys, so the ConfigBatch is enough.  The
        # picked rows re-lower through the memo — pure hits, since
        # each was lowered in a GA generation above.
        ranked, scores = pool.ranked()
        picked = self._select_indices(ranked.row_keys(), scores, records, rng)
        if not picked:
            return None
        return lower_batch_memo(
            space, ranked.take(np.array(picked, dtype=np.int64))
        )


__all__ = ["SearchPolicy", "AnsorPolicy"]
