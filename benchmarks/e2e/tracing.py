"""Span tracer for the end-to-end benchmark: wraps ``repro``'s public
entry points from outside, so the per-layer breakdown needs no edit
under ``src/``.

A :class:`Tracer` replaces each callable in :data:`TARGETS` with a
wrapper that records an in-memory span (name, layer, start, end, the
span that was open on the same thread when it started, and optional
counts taken from the call's arguments or result).  Functions that
other modules imported by name are patched at every such use site, so
``from repro.schedule.batch import lower_batch`` callers are traced
too.  :meth:`Tracer.uninstall` puts every original object back.

Times are ``time.perf_counter()`` readings.  On Linux that clock is
system-wide, so spans dumped by the traced server and runner
subprocesses line up with the benchmark's own timestamps.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

CountFn = Callable[[tuple, dict, object], dict]


class Target(NamedTuple):
    """One callable to wrap: ``module:function`` or ``module:Class.method``.

    The span's layer is the first part of its name unless given.
    """

    where: str
    name: str
    count: CountFn | None = None
    layer: str = ""
    #: record only the outermost of directly nested calls (``Module.__call__``
    #: recurses through every sub-module of a network)
    outermost: bool = False


def _rows(args, kwargs, result) -> dict:
    """Row count of the first real argument (after self / the space)."""
    return {"rows": len(args[1])}


def _result_rows(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _written_rows(args, kwargs, result) -> dict:
    return {"rows": int(result)}


def _explore_counts(args, kwargs, result) -> dict:
    return {"spec": len(result.spec), "evals": int(result.n_evals)}


def _measure_counts(args, kwargs, result) -> dict:
    return {"rows": len(result), "invalid": int((~result.valid).sum())}


def _lease_counts(args, kwargs, result) -> dict:
    if result is None:
        return {"leased": 0, "bytes": 0}
    return {"leased": 1, "bytes": len(json.dumps(result)), "job": result["job"]["job_id"]}


def _complete_counts(args, kwargs, result) -> dict:
    # complete(lease_id, runner_id, job_id, result, records, checkpoint=...)
    body = {"result": args[4], "records": args[5], "checkpoint": kwargs.get("checkpoint")}
    return {"bytes": len(json.dumps(body))}


def _publish_counts(args, kwargs, result) -> dict:
    # publish(topic, event): the topic is the job id
    return {"topic": args[1], "type": args[2].get("type", "")}


_SEARCH, _STORE, _MODELS = "repro.search", "repro.service.store", "repro.service.models"
_APP, _CLIENT = "repro.serve.app:ServeApp", "repro.serve.client:ServeClient"

TARGETS: tuple[Target, ...] = (
    Target("repro.workloads.registry:network_tasks", "workloads.network_tasks"),
    Target("repro.api:tune_subgraphs", "api.tune_subgraphs"),
    Target("repro.api:build_tuner", "api.build_tuner"),
    Target("repro.api:tasks_for", "api.tasks_for"),
    Target("repro.cache:clear_caches", "cache.clear_caches"),
    Target(f"{_SEARCH}.tuner:Tuner.tune", "search.tune"),
    Target(f"{_SEARCH}.tuner:Tuner.step", "search.step"),
    Target(f"{_SEARCH}.tuner:Tuner.checkpoint", "search.checkpoint"),
    Target(f"{_SEARCH}.policy:AnsorPolicy.propose_batch", "search.propose_batch"),
    Target(f"{_SEARCH}.pruner_policy:PrunerPolicy.propose_batch", "search.propose_batch"),
    Target(f"{_SEARCH}.records:RecordLog.add", "search.records"),
    Target(f"{_SEARCH}.records:RecordLog.training_data", "search.records"),
    Target(f"{_SEARCH}.records:RecordLog.best_configs", "search.records"),
    Target(f"{_SEARCH}.records:RecordLog.seed_from", "search.records"),
    Target(f"{_SEARCH}.task_scheduler:GradientTaskScheduler.select", "search.select_task"),
    Target("repro.core.lse:LatentScheduleExplorer.explore", "core.explore", _explore_counts),
    Target("repro.core.analyzer:SymbolBasedAnalyzer.score_batch", "core.score_batch", _rows),
    Target("repro.schedule.batch:lower_batch", "schedule.lower_batch", _rows),
    Target("repro.schedule.memo:lower_batch_memo", "schedule.lower_batch_memo", _rows),
    Target("repro.schedule.sampler:random_batch", "schedule.random_batch"),
    Target("repro.schedule.mutate:mutate_batch", "schedule.mutate_crossover"),
    Target("repro.schedule.mutate:crossover_pairs", "schedule.mutate_crossover"),
    # the models' featurize methods do the features layer's work and nothing else
    Target("repro.costmodel.pacm:PaCM.featurize_batch", "features.featurize_batch", _rows),
    Target("repro.costmodel.mlp:TenSetMLP.featurize_batch", "features.featurize_batch", _rows),
    Target("repro.costmodel.pacm:PaCM.featurize", "features.featurize_scalar", _rows),
    Target("repro.costmodel.mlp:TenSetMLP.featurize", "features.featurize_scalar", _rows),
    Target("repro.costmodel.base:NNCostModel.predict_batch", "costmodel.predict_batch", _rows),
    Target("repro.costmodel.base:NNCostModel.fit", "costmodel.fit", _rows),
    Target("repro.costmodel.base:CostModel.save_state", "costmodel.save_state"),
    Target("repro.costmodel.base:CostModel.load_state", "costmodel.load_state"),
    Target("repro.nn.layers:Module.__call__", "nn.forward", outermost=True),
    Target("repro.nn.losses:lambdarank_loss", "nn.loss"),
    Target("repro.nn.autograd:Tensor.backward", "nn.backward"),
    Target("repro.nn.optim:Adam.step", "nn.optim_step"),
    Target(
        "repro.hardware.measure:MeasureRunner.measure_batch",
        "hardware.measure_batch",
        _measure_counts,
    ),
    Target(f"{_STORE}:RecordStore.load_records", "service.load_records", _result_rows),
    Target(f"{_STORE}:RecordStore.load_rows", "service.load_records", _result_rows),
    Target(f"{_STORE}:rows_to_records", "service.load_records", _result_rows),
    Target(f"{_STORE}:RecordStore.append", "service.append_rows", _written_rows),
    Target(f"{_STORE}:RecordStore.append_rows", "service.append_rows", _written_rows),
    Target(f"{_MODELS}:ModelStore.load_wire", "service.model_load_wire"),
    Target(f"{_MODELS}:ModelStore.save_state", "service.model_save_state"),
    Target(f"{_MODELS}:ModelStore.save_wire", "service.model_save_state"),
    Target(f"{_MODELS}:state_to_wire", "service.state_to_wire"),
    Target(f"{_MODELS}:state_from_wire", "service.state_from_wire"),
    Target("repro.service.jobs:JobQueue.submit", "service.queue_ops"),
    Target("repro.service.jobs:JobQueue.claim", "service.queue_ops"),
    Target("repro.service.jobs:JobQueue.mark_done", "service.queue_ops"),
    Target("repro.service.jobs:JobQueue.mark_failed", "service.queue_ops"),
    Target(f"{_APP}.handle_submit", "serve.handle_submit"),
    Target(f"{_APP}.handle_lease", "serve.handle_lease"),
    Target(f"{_APP}.handle_heartbeat", "serve.handle_heartbeat"),
    Target(f"{_APP}.handle_complete", "serve.handle_complete"),
    Target(f"{_APP}.handle_result", "serve.handle_result"),
    # a long poll: blocked until the runner reports, not working
    Target(f"{_APP}.handle_events", "serve.handle_events", layer="wait"),
    Target("repro.serve.protocol:EventBroker.publish", "serve.publish", _publish_counts),
    Target(f"{_CLIENT}.lease", "serve.lease", _lease_counts),
    Target(f"{_CLIENT}.heartbeat", "serve.heartbeat"),
    Target(f"{_CLIENT}.complete", "serve.complete", _complete_counts),
    Target("repro.serve.protocol:result_to_wire", "serve.wire"),
    Target("repro.serve.protocol:fresh_rows", "serve.wire"),
    Target("repro.serve.protocol:checkpoint_to_wire", "serve.wire"),
    Target("repro.serve.protocol:checkpoint_from_wire", "serve.wire"),
    # the runner's whole life; its self time is sleeping between polls
    Target("repro.serve.runner:TuningRunner.run_forever", "serve.runner_loop", layer="wait"),
)

#: Column order of one dumped span row.
COLUMNS = ("id", "name", "layer", "start", "end", "parent", "job", "thread", "counts")


class Tracer:
    """Records spans around :data:`TARGETS` while installed."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        #: identifier stamped on every span started from now on
        self.job: str | None = None
        # a span while recording: [name, layer, start, end, parent span, job, thread, counts]
        self._spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        try:
            # import every target module before patching any of them, so
            # no module binds a wrapped function by name after the scan
            for target in self.targets:
                importlib.import_module(target.where.partition(":")[0])
            for target in self.targets:
                self._patch(target)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original object)`` for everything replaced."""
        return list(self._patched)

    def _patch(self, target: Target) -> None:
        module_name, _, path = target.where.partition(":")
        module = importlib.import_module(module_name)
        cls_name, _, attr = path.rpartition(".")
        if cls_name:
            owner = getattr(module, cls_name)
            # vars(), not getattr: the method must be defined on this very
            # class, and a KeyError here means the source moved it
            original = vars(owner)[attr]
            self._replace(owner, attr, original, self._wrap(original, target))
            return
        original = vars(module)[attr]
        wrapper = self._wrap(original, target)
        # every repro module that bound the function by name gets the wrapper
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for bound, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, bound, original, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _wrap(self, fn, target: Target):
        name, count, outermost = target.name, target.count, target.outermost
        layer = target.layer or name.partition(".")[0]
        local, spans, clock = self._local, self._spans, time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            if outermost and parent is not None and parent[0] == name:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, parent, self.job, get_ident(), None]
            stack.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                spans.append(span)
            if count is not None:
                span[7] = count(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A span around the benchmark's own code (the per-job root)."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        span = [name, layer, 0.0, 0.0, stack[-1] if stack else None, self.job,
                threading.get_ident(), None]
        stack.append(span)
        span[2] = time.perf_counter()
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            stack.pop()
            self._spans.append(span)

    def export(self, proc: str) -> list[dict]:
        """Finished spans as dicts; ids are ``<proc>:<n>``, parents by id."""
        spans = list(self._spans)
        ids = {id(span): f"{proc}:{i}" for i, span in enumerate(spans)}
        out = []
        for span in spans:
            name, layer, start, end, parent, job, thread, counts = span
            out.append(
                {
                    "id": ids[id(span)],
                    "name": name,
                    "layer": layer,
                    "start": start,
                    "end": end,
                    # a parent still open at export time has no id yet
                    "parent": ids.get(id(parent)) if parent is not None else None,
                    "job": job,
                    "thread": thread,
                    "counts": counts,
                }
            )
        return out


def dump_spans(path: Path, spans: list[dict], **header) -> None:
    """Write spans as compact rows under a ``columns`` header."""
    rows = [[span[c] for c in COLUMNS] for span in spans]
    payload = {**header, "clock": "time.perf_counter", "columns": COLUMNS, "spans": rows}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def load_spans(path: Path) -> list[dict]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    columns = payload["columns"]
    return [dict(zip(columns, row)) for row in payload["spans"]]


def add_self_times(spans: list[dict]) -> None:
    """Set ``dur`` and ``self`` on every span.

    Self time is the span's duration minus the part its direct children
    cover.  Children run on the parent's thread, one after the other,
    so their durations add without overlap.
    """
    covered: dict[str, float] = {}
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + span["dur"]
    for span in spans:
        span["self"] = span["dur"] - covered.get(span["id"], 0.0)
