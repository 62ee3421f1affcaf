"""repro.obs — stage-level telemetry for the draft-then-verify pipeline.

The whole point of Pruner is shifting wall-clock between pipeline
stages, so this package makes the shape of that shift observable:

* :data:`METRICS` — the process-wide :class:`MetricsRegistry`.  The
  tuning hot path records into it (stage histograms, funnel counters,
  measured-candidate totals), and ``GET /metrics`` on the serve layer
  renders it in Prometheus text format.
* :func:`span` — times a pipeline stage into the
  ``repro_stage_seconds`` histogram and the current
  :class:`RoundTrace` (if one is active on this thread).
* :func:`funnel` — counts candidates through a funnel stage
  (drafted -> gated -> measured) the same dual way.
* :class:`TraceSink` — the per-job JSONL trace store under
  ``<cache>/traces/``.

Overhead is one ``perf_counter`` pair per span and one locked add per
counter batch — all instrumentation sits at round/batch granularity,
never per candidate, so the candidates/s floors of
``benchmarks/bench_throughput.py`` are unaffected.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    PROM_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.trace import (
    RoundTrace,
    TraceSink,
    current_trace,
    use_trace,
)

#: The process-wide registry every in-process instrument records into.
METRICS = MetricsRegistry()

#: Stage wall-clock histogram: draft / score / lower / verify / measure
#: / train, one observation per span.
STAGE_SECONDS = METRICS.histogram(
    "repro_stage_seconds",
    "Wall-clock seconds per tuning pipeline stage",
    labels=("stage",),
)

#: Candidate counts through the draft-then-verify funnel.
FUNNEL = METRICS.counter(
    "repro_funnel_candidates_total",
    "Candidates flowing through each funnel stage "
    "(drafted -> gated -> measured)",
    labels=("stage",),
)

#: Completed tuning rounds in this process.
ROUNDS = METRICS.counter(
    "repro_rounds_total", "Tuning rounds completed in this process"
)

#: Candidates measured on the (simulated) device.
MEASURED = METRICS.counter(
    "repro_measured_candidates_total",
    "Candidates measured by MeasureRunner in this process",
)

#: Candidate rows lowered: every row of every ``lower_batch`` call
#: (unpacked or re-taken rows are not lowerings) — the registry-backed form
#: of ``lowered_count()``.
LOWERED = METRICS.counter(
    "repro_lowered_rows_total", "Rows lowered by lower_batch in this process"
)

#: Exceptions swallowed by top-level catch-all handlers (HTTP dispatch,
#: runner attempts, worker loops).  Those handlers legitimately catch
#: everything — a bug must not kill the process — but every swallow
#: must become a count: a silent failure loop shows up here long before
#: anyone reads logs.  The ``hyg-broad-except`` rule in
#: :mod:`repro.analysis` enforces that any broad handler feeds this.
CAUGHT = METRICS.counter(
    "repro_caught_exceptions_total",
    "Exceptions caught by last-resort handlers, by site",
    labels=("site",),
)


@contextmanager
def span(stage: str, registry: MetricsRegistry | None = None):
    """Time a pipeline stage.

    Observes the elapsed seconds into ``repro_stage_seconds{stage=...}``
    (on ``registry`` or the global :data:`METRICS`) and adds them to the
    thread's current :class:`RoundTrace` when one is active.  Exceptions
    still record the partial duration — a failing stage's cost is real.
    """
    hist = (
        STAGE_SECONDS
        if registry is None
        else registry.histogram(
            "repro_stage_seconds",
            "Wall-clock seconds per tuning pipeline stage",
            labels=("stage",),
        )
    )
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        hist.labels(stage=stage).observe(elapsed)
        trace = current_trace()
        if trace is not None:
            trace.add_stage(stage, elapsed)


def funnel(stage: str, n: int) -> None:
    """Count ``n`` candidates through a funnel stage (batch granularity)."""
    FUNNEL.labels(stage=stage).inc(n)
    trace = current_trace()
    if trace is not None:
        trace.add_count(stage, n)


__all__ = [
    "DEFAULT_BUCKETS",
    "PROM_CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "RoundTrace",
    "TraceSink",
    "METRICS",
    "STAGE_SECONDS",
    "FUNNEL",
    "ROUNDS",
    "MEASURED",
    "LOWERED",
    "CAUGHT",
    "span",
    "funnel",
    "current_trace",
    "use_trace",
]
