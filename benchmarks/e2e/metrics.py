"""Metric definitions and how each is computed from job samples and spans.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json``
carries (the tier-1 test holds the two in step).  End-to-end values
come from untraced jobs; per-layer values from the spans of traced
jobs, as seconds, rows or ratios *per job* unless the name ends in
``_p50_s`` / ``_p90_s``.  A metric whose layer a workload never
enters reads 0 there.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import NamedTuple

import numpy as np

from tracing import add_self_times
from workloads import FEATURE_CACHE, MEMO_CACHE


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only: tolerated worsening, as a share


class Value(NamedTuple):
    value: float
    n: int  # samples behind the value


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("job_wall_s", "s", "lower", 0.25),
    Metric("job_cpu_s", "s", "lower", 0.25),
    Metric("trials_per_s", "1/s", "higher", 0.25),
    Metric("final_latency_ratio", "ratio", "lower", 0.20),
    Metric("sim_search_s", "sim-s", "lower", 0.02),
    Metric("peak_rss_mb", "MiB", "lower", 0.25),
)

#: Layers whose self times are summed; "wait" (blocked on another
#: process) and "bench" (the benchmark's own per-job root) are not.
LAYERS = (
    "workloads", "api", "cache", "search", "core", "schedule", "features",
    "costmodel", "nn", "hardware", "service", "serve",
)  # fmt: skip

_S, _N, _RATE, _RATIO, _B = "s", "count", "1/s", "ratio", "bytes"
PER_LAYER = (
    Metric("workloads.network_tasks_s", _S, "lower"),
    Metric("api.build_tuner_s", _S, "lower"),
    Metric("api.job_overhead_s", _S, "lower"),
    Metric("search.step_s", _S, "lower"),
    Metric("search.step_self_s", _S, "lower"),
    Metric("search.propose_self_s", _S, "lower"),
    Metric("search.records_s", _S, "lower"),
    Metric("search.select_task_s", _S, "lower"),
    Metric("search.rounds", _N, "lower"),
    Metric("search.drafted", _N, "lower"),
    Metric("search.lowered", _N, "lower"),
    Metric("search.gated", _N, "lower"),
    Metric("search.measured", _N, "higher"),
    Metric("search.round_p50_s", _S, "lower"),
    Metric("search.round_p90_s", _S, "lower"),
    Metric("search.time_to_target_s", _S, "lower"),
    Metric("core.explore_s", _S, "lower"),
    Metric("core.explore_self_s", _S, "lower"),
    Metric("core.score_batch_s", _S, "lower"),
    Metric("core.score_rows", _N, "lower"),
    Metric("core.sa_rows_per_s", _RATE, "higher"),
    Metric("core.spec_yield", _RATIO, "higher"),
    Metric("core.launchable_ratio", _RATIO, "higher"),
    Metric("schedule.lower_batch_s", _S, "lower"),
    Metric("schedule.lower_batch_rows", _N, "lower"),
    Metric("schedule.lower_rows_per_s", _RATE, "higher"),
    Metric("schedule.memo_self_s", _S, "lower"),
    Metric("schedule.memo_hit_ratio", _RATIO, "higher"),
    Metric("schedule.memo_rows", _N, "lower"),
    Metric("schedule.memo_evictions", _N, "lower"),
    Metric("schedule.random_batch_s", _S, "lower"),
    Metric("schedule.mutate_crossover_s", _S, "lower"),
    Metric("features.featurize_batch_s", _S, "lower"),
    Metric("features.featurize_rows", _N, "lower"),
    Metric("features.rows_per_s", _RATE, "higher"),
    Metric("features.featurize_scalar_s", _S, "lower"),
    Metric("features.cache_hit_ratio", _RATIO, "higher"),
    Metric("features.cache_rows", _N, "lower"),
    Metric("features.cache_evictions", _N, "lower"),
    Metric("costmodel.predict_self_s", _S, "lower"),
    Metric("costmodel.predict_rows", _N, "lower"),
    Metric("costmodel.predict_rows_per_s", _RATE, "higher"),
    Metric("costmodel.fit_s", _S, "lower"),
    Metric("costmodel.fit_self_s", _S, "lower"),
    Metric("costmodel.fit_calls", _N, "lower"),
    Metric("costmodel.fit_samples", _N, "lower"),
    Metric("costmodel.fit_samples_per_s", _RATE, "higher"),
    Metric("costmodel.save_state_s", _S, "lower"),
    Metric("costmodel.load_state_s", _S, "lower"),
    Metric("nn.forward_s", _S, "lower"),
    Metric("nn.loss_s", _S, "lower"),
    Metric("nn.backward_s", _S, "lower"),
    Metric("nn.optim_step_s", _S, "lower"),
    Metric("hardware.measure_batch_s", _S, "lower"),
    Metric("hardware.measured_rows", _N, "higher"),
    Metric("hardware.measure_rows_per_s", _RATE, "higher"),
    Metric("hardware.invalid_ratio", _RATIO, "lower"),
    Metric("service.load_records_s", _S, "lower"),
    Metric("service.load_records_rows", _N, "lower"),
    Metric("service.append_rows_s", _S, "lower"),
    Metric("service.append_rows", _N, "higher"),
    Metric("service.model_load_wire_s", _S, "lower"),
    Metric("service.model_save_state_s", _S, "lower"),
    Metric("service.state_to_wire_s", _S, "lower"),
    Metric("service.state_from_wire_s", _S, "lower"),
    Metric("service.checkpoint_bytes", _B, "lower"),
    Metric("service.store_bytes", _B, "lower"),
    Metric("service.queue_ops_s", _S, "lower"),
    Metric("serve.job_p90_s", _S, "lower"),
    Metric("serve.submit_p50_s", _S, "lower"),
    Metric("serve.lease_p50_s", _S, "lower"),
    Metric("serve.heartbeat_p50_s", _S, "lower"),
    Metric("serve.complete_p50_s", _S, "lower"),
    Metric("serve.result_p50_s", _S, "lower"),
    Metric("serve.events_wake_p50_s", _S, "lower"),
    Metric("serve.handle_submit_s", _S, "lower"),
    Metric("serve.handle_lease_s", _S, "lower"),
    Metric("serve.handle_heartbeat_s", _S, "lower"),
    Metric("serve.handle_complete_s", _S, "lower"),
    Metric("serve.lease_payload_bytes", _B, "lower"),
    Metric("serve.complete_payload_bytes", _B, "lower"),
    Metric("serve.requests", _N, "lower"),
    Metric("serve.http_errors", _N, "lower"),
    Metric("serve.runner_idle_s", _S, "lower"),
    Metric("serve.overhead_share", _RATIO, "lower"),
    Metric("obs.trace_overhead_share", _RATIO, "lower"),
    Metric("obs.metrics_scrape_s", _S, "lower"),
    Metric("obs.stage_agreement", _RATIO, "higher"),
    Metric("obs.attributed_share", _RATIO, "higher"),
    *(Metric(f"layer.{layer}_self_s", _S, "lower") for layer in LAYERS),
)

#: benchmark span name -> the RoundProgress.stages entries it should equal
STAGE_SPANS = {
    "core.explore": ("draft",),
    "costmodel.predict_batch": ("verify", "score"),
    "hardware.measure_batch": ("measure",),
    "costmodel.fit": ("train",),
}

#: server-side handler span -> the caller's span that blocks on it
HANDLER_CALLERS = {
    "serve.handle_submit": "serve.client.submit",
    "serve.handle_events": "serve.client.wait",
    "serve.handle_result": "serve.client.result",
    "serve.handle_lease": "serve.lease",
    "serve.handle_heartbeat": "serve.heartbeat",
    "serve.handle_complete": "serve.complete",
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); 0 for an empty list."""
    return float(np.percentile(values, q)) if values else 0.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def typical_wall(samples: list) -> float:
    """Stratified median of job wall: the median within each stratum of
    like jobs, averaged over the strata.

    The in-process workloads have one stratum.  On the socket a job's cost
    grows with its place in the chain, so a plain median would sit on the
    flat part of the pooled distribution and jump between neighbouring
    places from run to run.
    """
    strata: dict[object, list[float]] = {}
    for sample in samples:
        strata.setdefault(sample.stratum, []).append(sample.wall_s)
    return ratio(sum(median(walls) for walls in strata.values()), len(strata))


def end_to_end(
    samples: list,
    setup_s: Value,
    cpu_s: Value,
    latency_ratios: list[float],
    peak_rss_mb: float,
) -> dict[str, Value]:
    """The end-to-end metrics of one untraced run.

    ``samples`` need ``wall_s``, ``stratum``, ``sim_search_s`` and
    ``fresh_trials``; jobs that failed outright are left out of the
    timings (they are counted in the run's ``failed``).
    """
    ok = [s for s in samples if s.end > s.start and s.fresh_trials]
    n = len(ok)
    job_wall = typical_wall(ok)
    return {
        "setup_s": setup_s,
        "job_wall_s": Value(job_wall, n),
        "job_cpu_s": cpu_s,
        "trials_per_s": Value(
            ratio(ratio(sum(s.fresh_trials for s in ok), n), job_wall), n
        ),
        "final_latency_ratio": Value(
            statistics.geometric_mean(latency_ratios) if latency_ratios else 0.0,
            len(latency_ratios),
        ),
        "sim_search_s": Value(ratio(sum(s.sim_search_s for s in ok), n), n),
        "peak_rss_mb": Value(peak_rss_mb, 1),
    }


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def client_spans(samples: list) -> list[dict]:
    """The client's side of each socket job, as spans built from its
    timestamps: a ``bench.job`` root over submit, wait and result."""
    spans = []
    for i, s in enumerate(samples):
        if not s.end > s.done > s.submitted > s.start:
            continue  # the job failed part-way; it has no complete timeline
        root = f"bench:{i}"
        phases = (
            ("bench.job", "bench", s.start, s.end, None),
            ("serve.client.submit", "serve", s.start, s.submitted, root),
            ("serve.client.wait", "wait", s.submitted, s.done, root),
            ("serve.client.result", "serve", s.done, s.end, root),
        )
        for k, (name, layer, start, end, parent) in enumerate(phases):
            spans.append(
                {"id": root if k == 0 else f"{root}.{k}", "name": name, "layer": layer,
                 "start": start, "end": end, "parent": parent, "job": s.job_id,
                 "thread": 0, "counts": None}
            )  # fmt: skip
    return spans


def assemble_serve_trace(samples: list, remote: list[dict]) -> list[dict]:
    """One trace from the client's timestamps and the spans the traced
    server and runner dumped.

    Remote spans take the id of the job whose client-side interval holds
    their start (one job is in flight at a time); spans outside every
    timed job — boot, warm-up, shutdown — keep ``job = None``.  A
    server handler with no parent becomes the child of the call that
    was blocked on it, found by containment, so the caller's self time
    is the HTTP round trip less the handler.
    """
    local = client_spans(samples)
    roots = sorted((s for s in local if s["name"] == "bench.job"), key=lambda s: s["start"])
    starts = [s["start"] for s in roots]
    for span in remote:
        at = bisect.bisect_right(starts, span["start"]) - 1
        if at >= 0 and span["start"] <= roots[at]["end"]:
            span["job"] = roots[at]["job"]
    spans = local + remote
    callers: dict[str, list[dict]] = {name: [] for name in HANDLER_CALLERS.values()}
    for span in spans:
        if span["name"] in callers:
            callers[span["name"]].append(span)
    caller_starts = {}
    for name, group in callers.items():
        group.sort(key=lambda s: s["start"])
        caller_starts[name] = [s["start"] for s in group]
    for span in remote:
        caller_name = HANDLER_CALLERS.get(span["name"])
        if caller_name is None or span["parent"] is not None:
            continue
        group = callers[caller_name]
        at = bisect.bisect_right(caller_starts[caller_name], span["start"]) - 1
        if at >= 0 and group[at]["end"] >= span["end"]:
            span["parent"] = group[at]["id"]
    return spans


class Spans:
    """Sums over the spans that belong to timed jobs."""

    def __init__(self, spans: list[dict], jobs: int) -> None:
        add_self_times(spans)
        self.jobs = jobs
        self.all = [s for s in spans if s["job"] is not None]
        self.by_name: dict[str, list[dict]] = {}
        for span in self.all:
            self.by_name.setdefault(span["name"], []).append(span)

    def named(self, name: str) -> list[dict]:
        return self.by_name.get(name, [])

    def total(self, name: str, key: str = "dur") -> float:
        return sum(s[key] for s in self.named(name))

    def counted(self, name: str, key: str) -> float:
        return sum((s["counts"] or {}).get(key, 0) for s in self.named(name))

    def per_job(self, amount: float) -> Value:
        return Value(ratio(amount, self.jobs), self.jobs)

    def seconds(self, name: str, key: str = "dur") -> Value:
        return self.per_job(self.total(name, key))

    def outermost(self, name: str) -> list[dict]:
        """Spans of ``name`` not nested directly in another of that name."""
        ids = {s["id"] for s in self.named(name)}
        return [s for s in self.named(name) if s["parent"] not in ids]

    def rate(self, name: str, key: str = "rows") -> Value:
        return Value(ratio(self.counted(name, key), self.total(name)), len(self.named(name)))

    def p50(self, spans: list[dict]) -> Value:
        return Value(median([s["dur"] for s in spans]), len(spans))


def cache_totals(samples: list, cache: str) -> dict[str, float]:
    totals = {"hits": 0.0, "misses": 0.0, "evictions": 0.0, "rows": 0.0}
    for sample in samples:
        for key, value in sample.cache.get(cache, {}).items():
            totals[key] += value
    return totals


def stage_agreement(spans: Spans, samples: list) -> Value:
    """Benchmark span seconds over the seconds ``RoundProgress.stages``
    reported, per stage; the metric is the ratio furthest from 1."""
    reported: dict[str, float] = {}
    for sample in samples:
        for stage, seconds in sample.stages.items():
            reported[stage] = reported.get(stage, 0.0) + seconds
    ratios = {}
    for name, stages in STAGE_SPANS.items():
        theirs = sum(reported.get(stage, 0.0) for stage in stages)
        if theirs > 0:
            ratios[stages[0]] = spans.total(name) / theirs
    if not ratios:
        return Value(0.0, 0)
    worst = max(ratios.values(), key=lambda r: abs(math.log(r)) if r > 0 else math.inf)
    return Value(worst, len(ratios))


def per_layer(
    spans: Spans,
    traced: list,
    untraced: list,
    serve: dict[str, float] | None = None,
) -> dict[str, Value]:
    """Every per-layer metric of one traced run.

    ``traced`` and ``untraced`` are the job samples of the two halves of
    the run (same seeds); ``serve`` carries what only the socket workload
    has: the ``/metrics`` scrape and the bytes left on disk.
    """
    n = spans.jobs
    out: dict[str, Value] = {m.name: Value(0.0, 0) for m in PER_LAYER}
    wall = sum(s.wall_s for s in traced)
    funnel: dict[str, float] = {}
    for sample in traced:
        for stage, count in sample.funnel.items():
            funnel[stage] = funnel.get(stage, 0.0) + count

    out["workloads.network_tasks_s"] = spans.seconds("workloads.network_tasks")
    out["api.build_tuner_s"] = spans.seconds("api.build_tuner")
    out["api.job_overhead_s"] = spans.per_job(wall - spans.total("search.step"))

    out["search.step_s"] = spans.seconds("search.step")
    out["search.step_self_s"] = spans.seconds("search.step", "self")
    out["search.propose_self_s"] = spans.seconds("search.propose_batch", "self")
    out["search.records_s"] = spans.seconds("search.records")
    out["search.select_task_s"] = spans.seconds("search.select_task")
    out["search.rounds"] = spans.per_job(len(spans.named("search.step")))
    for stage in ("drafted", "lowered", "gated", "measured"):
        out[f"search.{stage}"] = spans.per_job(funnel.get(stage, 0.0))
    rounds = [r for sample in untraced for r in sample.round_s]
    out["search.round_p50_s"] = Value(median(rounds), len(rounds))
    out["search.round_p90_s"] = Value(percentile(rounds, 90), len(rounds))
    reached = [s.time_to_target_s for s in untraced if s.time_to_target_s]
    out["search.time_to_target_s"] = Value(median(reached), len(reached))

    out["core.explore_s"] = spans.seconds("core.explore")
    out["core.explore_self_s"] = spans.seconds("core.explore", "self")
    out["core.score_batch_s"] = spans.seconds("core.score_batch")
    out["core.score_rows"] = spans.per_job(spans.counted("core.score_batch", "rows"))
    out["core.sa_rows_per_s"] = spans.rate("core.score_batch")
    out["core.spec_yield"] = Value(
        ratio(spans.counted("core.explore", "spec"), spans.counted("core.explore", "evals")),
        len(spans.named("core.explore")),
    )
    out["core.launchable_ratio"] = Value(
        ratio(funnel.get("gated", 0.0), funnel.get("lowered", 0.0)), n
    )

    out["schedule.lower_batch_s"] = spans.seconds("schedule.lower_batch")
    out["schedule.lower_batch_rows"] = spans.per_job(
        spans.counted("schedule.lower_batch", "rows")
    )
    out["schedule.lower_rows_per_s"] = spans.rate("schedule.lower_batch")
    out["schedule.memo_self_s"] = spans.seconds("schedule.lower_batch_memo", "self")
    out["schedule.random_batch_s"] = spans.seconds("schedule.random_batch")
    out["schedule.mutate_crossover_s"] = spans.seconds("schedule.mutate_crossover")
    out["features.featurize_batch_s"] = spans.seconds("features.featurize_batch")
    out["features.featurize_rows"] = spans.per_job(
        spans.counted("features.featurize_batch", "rows")
    )
    out["features.rows_per_s"] = spans.rate("features.featurize_batch")
    out["features.featurize_scalar_s"] = spans.seconds("features.featurize_scalar")
    for prefix, cache in (("schedule.memo", MEMO_CACHE), ("features.cache", FEATURE_CACHE)):
        totals = cache_totals(traced, cache)
        out[f"{prefix}_hit_ratio"] = Value(
            ratio(totals["hits"], totals["hits"] + totals["misses"]), n
        )
        out[f"{prefix}_rows"] = spans.per_job(totals["rows"])
        out[f"{prefix}_evictions"] = spans.per_job(totals["evictions"])

    out["costmodel.predict_self_s"] = spans.seconds("costmodel.predict_batch", "self")
    out["costmodel.predict_rows"] = spans.per_job(
        spans.counted("costmodel.predict_batch", "rows")
    )
    out["costmodel.predict_rows_per_s"] = spans.rate("costmodel.predict_batch")
    out["costmodel.fit_s"] = spans.seconds("costmodel.fit")
    out["costmodel.fit_self_s"] = spans.seconds("costmodel.fit", "self")
    out["costmodel.fit_calls"] = spans.per_job(len(spans.named("costmodel.fit")))
    out["costmodel.fit_samples"] = spans.per_job(spans.counted("costmodel.fit", "rows"))
    out["costmodel.fit_samples_per_s"] = spans.rate("costmodel.fit")
    out["costmodel.save_state_s"] = spans.seconds("costmodel.save_state")
    out["costmodel.load_state_s"] = spans.seconds("costmodel.load_state")

    out["nn.forward_s"] = spans.seconds("nn.forward")
    out["nn.loss_s"] = spans.seconds("nn.loss")
    out["nn.backward_s"] = spans.seconds("nn.backward")
    out["nn.optim_step_s"] = spans.seconds("nn.optim_step")

    out["hardware.measure_batch_s"] = spans.seconds("hardware.measure_batch")
    out["hardware.measured_rows"] = spans.per_job(
        spans.counted("hardware.measure_batch", "rows")
    )
    out["hardware.measure_rows_per_s"] = spans.rate("hardware.measure_batch")
    out["hardware.invalid_ratio"] = Value(
        ratio(
            spans.counted("hardware.measure_batch", "invalid"),
            spans.counted("hardware.measure_batch", "rows"),
        ),
        len(spans.named("hardware.measure_batch")),
    )

    # load_records calls load_rows and rows_to_records: count each read once
    loads = spans.outermost("service.load_records")
    out["service.load_records_s"] = spans.per_job(sum(s["dur"] for s in loads))
    out["service.load_records_rows"] = spans.per_job(
        sum(s["counts"]["rows"] for s in loads)
    )
    out["service.append_rows_s"] = spans.seconds("service.append_rows")
    out["service.append_rows"] = spans.per_job(spans.counted("service.append_rows", "rows"))
    out["service.model_load_wire_s"] = spans.seconds("service.model_load_wire")
    out["service.model_save_state_s"] = spans.per_job(
        sum(s["dur"] for s in spans.outermost("service.model_save_state"))
    )
    out["service.state_to_wire_s"] = spans.seconds("service.state_to_wire")
    out["service.state_from_wire_s"] = spans.seconds("service.state_from_wire")
    out["service.queue_ops_s"] = spans.seconds("service.queue_ops")

    step_s = spans.total("search.step")
    if serve is not None:
        out.update(serve_metrics(spans, traced, untraced, serve))
        out["serve.overhead_share"] = Value(1.0 - ratio(step_s, wall), n)

    slower = ratio(typical_wall(traced) - typical_wall(untraced), typical_wall(untraced))
    out["obs.trace_overhead_share"] = Value(slower, min(len(traced), len(untraced)))
    out["obs.stage_agreement"] = stage_agreement(spans, traced)

    named = 0.0
    for layer in LAYERS:
        own = sum(s["self"] for s in spans.all if s["layer"] == layer)
        out[f"layer.{layer}_self_s"] = spans.per_job(own)
        named += own
    # on the socket the time a queued job waits for the runner's next poll
    # is named too (the client's wake-up overlaps the tail of `complete`)
    waits = n * out["serve.runner_idle_s"].value
    out["obs.attributed_share"] = Value(ratio(named + waits, wall), n)
    return out


def serve_metrics(
    spans: Spans, traced: list, untraced: list, serve: dict[str, float]
) -> dict[str, Value]:
    n = spans.jobs
    out = {
        "serve.job_p90_s": Value(
            percentile([s.wall_s for s in untraced], 90), len(untraced)
        ),
        "serve.submit_p50_s": spans.p50(spans.named("serve.client.submit")),
        "serve.result_p50_s": spans.p50(spans.named("serve.client.result")),
        "serve.lease_p50_s": spans.p50(
            [s for s in spans.named("serve.lease") if (s["counts"] or {}).get("leased")]
        ),
        "serve.heartbeat_p50_s": spans.p50(spans.named("serve.heartbeat")),
        "serve.complete_p50_s": spans.p50(spans.named("serve.complete")),
        "serve.lease_payload_bytes": spans.per_job(spans.counted("serve.lease", "bytes")),
        "serve.complete_payload_bytes": spans.per_job(
            spans.counted("serve.complete", "bytes")
        ),
        "serve.requests": Value(serve["requests"], 1),
        "serve.http_errors": Value(serve["http_errors"], 1),
        "obs.metrics_scrape_s": Value(serve["scrape_s"], 1),
        "service.checkpoint_bytes": Value(serve["checkpoint_bytes"], 1),
        "service.store_bytes": Value(serve["store_bytes"], 1),
    }
    for handler in ("submit", "lease", "heartbeat", "complete"):
        out[f"serve.handle_{handler}_s"] = spans.seconds(f"serve.handle_{handler}")

    # per job: how long the queued job waited for the runner's poll that
    # took it, and how long after the done event the client had returned.
    # The lease payload names its job; the poll's start does not, because a
    # poll can be in flight before the client submits the job it will take.
    leased = {
        s["counts"]["job"]: s
        for s in spans.named("serve.lease")
        if (s["counts"] or {}).get("leased")
    }
    done = {
        s["counts"]["topic"]: s
        for s in spans.named("serve.publish")
        if (s["counts"] or {}).get("type") == "done"
    }
    idle, wake = [], []
    for sample in traced:
        if sample.job_id in leased:
            idle.append(max(0.0, leased[sample.job_id]["start"] - sample.submitted))
        if sample.job_id in done:
            wake.append(sample.done - done[sample.job_id]["start"])
    out["serve.runner_idle_s"] = Value(ratio(sum(idle), len(idle)), len(idle))
    out["serve.events_wake_p50_s"] = Value(median(wake), len(wake))
    return out
