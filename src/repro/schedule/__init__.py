"""Schedule substrate: search space, sampling, mutation, lowering.

Implements the Ansor-style GPU schedule template the paper builds on
(Figure 3): each spatial loop is split five ways
``[block, thread, vthread, inner0, inner1]`` (the paper's I0..I4), each
reduction loop three ways ``[k0, k1, k2]``, with shared-memory caching
of inputs and unroll / vectorize annotations.  A TensorCore variant
constrains thread tiles to WMMA 16x16x16 fragments.

* :mod:`repro.schedule.space`  — :class:`ScheduleSpace` (the paper's θx)
  and :class:`ScheduleConfig` (one point of the space).
* :mod:`repro.schedule.sketch` — sketch-generation rules: workload ->
  space.
* :mod:`repro.schedule.sampler` — random initial schedules (batched).
* :mod:`repro.schedule.mutate` — GA mutation / crossover operators
  (batched, over factor matrices).
* :mod:`repro.schedule.evolve` — the evolutionary search minus its
  fitness: seeded population, generation step, best-first pool.
* :mod:`repro.schedule.lower`  — :class:`LoweredProgram`, the scalar
  view of one candidate (its tile structure and dataflow blocks, and
  its one-row batch as ``row``), and :func:`lower`, row 0 of a one-row
  :func:`lower_batch`.
* :mod:`repro.schedule.batch`  — the structure-of-arrays pipeline and
  the one lowering: :class:`ConfigBatch`, :func:`lower_batch` and
  :class:`CandidateBatch` (packed per-candidate arrays the whole search
  hot path runs on).
* :mod:`repro.schedule.memo`   — :func:`lower_batch_memo`, the search
  policies' lowering entry: ``lower_batch`` under a name the end-to-end
  benchmark's tracer patches (there is no memo).
"""

from repro.schedule.space import ScheduleConfig, ScheduleSpace, count_factorizations
from repro.schedule.sketch import generate_sketch
from repro.schedule.sampler import random_config, random_population
from repro.schedule.lower import DataflowBlock, LoweredProgram, lower, lowered_count
from repro.schedule.batch import CandidateBatch, ConfigBatch, lower_batch
from repro.schedule.memo import lower_batch_memo

__all__ = [
    "ScheduleConfig",
    "ScheduleSpace",
    "count_factorizations",
    "generate_sketch",
    "random_config",
    "random_population",
    "lower",
    "lower_batch",
    "lower_batch_memo",
    "lowered_count",
    "LoweredProgram",
    "DataflowBlock",
    "ConfigBatch",
    "CandidateBatch",
]
