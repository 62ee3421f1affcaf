"""Tests for repro.obs: registry, traces, and the /metrics surface.

Covers the metric primitives (thread safety, histogram bucketing, the
Prometheus text format), the per-round trace plumbing through the
tuner, the JSONL trace sink's rotation, and the serve layer's
``GET /metrics`` endpoint over a real socket.
"""

from __future__ import annotations

import os
import re
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import api, obs
from repro.hardware.device import get_device
from repro.obs import (
    PROM_CONTENT_TYPE,
    MetricsRegistry,
    RoundTrace,
    TraceSink,
    current_trace,
    use_trace,
)
from repro.serve.app import ServeApp
from repro.serve.client import ServeClient
from repro.serve.engine import JobEngine
from repro.serve.http import make_server
from repro.workloads import network_tasks

# One Prometheus sample line: name{labels} value (labels optional).
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$"
)


def _assert_prometheus_parseable(text: str) -> dict[str, int]:
    """Every line is a comment or a well-formed sample; returns sample
    counts per family prefix."""
    seen: dict[str, int] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _SAMPLE_RE.match(line), f"malformed sample line: {line!r}"
        name = line.split("{")[0].split(" ")[0]
        seen[name] = seen.get(name, 0) + 1
    return seen


# ----------------------------------------------------------------------
# registry primitives
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_and_gauge_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "a counter")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = reg.gauge("g", "a gauge")
        g.set(7)
        g.dec(2)
        assert g.value == 5

    def test_idempotent_getters_and_mismatch(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "x", labels=("k",))
        assert reg.counter("x_total", "x", labels=("k",)) is a
        with pytest.raises(ValueError):
            reg.gauge("x_total", "x")  # kind mismatch
        with pytest.raises(ValueError):
            reg.counter("x_total", "x", labels=("other",))  # label mismatch

    def test_labeled_series(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "hits", labels=("cache",))
        c.labels(cache="a").inc(3)
        c.labels(cache="b").inc(4)
        assert c.total() == 7
        with pytest.raises(ValueError):
            c.labels(wrong="a")
        with pytest.raises(ValueError):
            c.inc()  # labeled family has no unlabeled child

    def test_concurrent_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total", "n", labels=("who",))
        h = reg.histogram("h_seconds", "h", buckets=(0.5, 1.0))

        def work(who: str) -> None:
            for _ in range(1000):
                c.labels(who=who).inc()
                h.observe(0.25)

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.total() == 8000
        _, counts, total, n = h.snapshot()
        assert n == 8000 and counts[0] == 8000
        assert total == pytest.approx(2000.0)


class TestHistogram:
    def test_bucketing_is_le_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.1, 0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        boundaries, counts, total, n = h.snapshot()
        assert boundaries == (0.1, 1.0, 10.0)
        assert list(counts) == [2, 2, 1, 1]  # le=0.1, le=1, le=10, +Inf
        assert n == 6
        assert total == pytest.approx(106.65)

    def test_render_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "lat", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        text = reg.render()
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="2"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_sum 5" in text
        assert "lat_seconds_count 3" in text


class TestPrometheusText:
    def test_golden_text(self):
        reg = MetricsRegistry()
        reg.counter("b_total", "counts b", labels=("kind",)).labels(
            kind="x"
        ).inc(2)
        reg.gauge("a_gauge", "gauges a").set(1.5)
        want = (
            "# HELP a_gauge gauges a\n"
            "# TYPE a_gauge gauge\n"
            "a_gauge 1.5\n"
            "# HELP b_total counts b\n"
            "# TYPE b_total counter\n"
            'b_total{kind="x"} 2\n'
        )
        assert reg.render() == want

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("e_total", "e", labels=("k",)).labels(
            k='a"b\\c\nd'
        ).inc()
        line = [
            ln for ln in reg.render().splitlines() if ln.startswith("e_total{")
        ][0]
        assert line == 'e_total{k="a\\"b\\\\c\\nd"} 1'

    def test_collectors_run_at_render(self):
        reg = MetricsRegistry()
        pulls = []

        def collect(r: MetricsRegistry) -> None:
            pulls.append(1)
            r.gauge("pulled", "pulled").set(len(pulls))

        reg.add_collector(collect)
        assert "pulled 1" in reg.render()
        assert "pulled 2" in reg.render()

    def test_global_registry_parseable(self):
        _assert_prometheus_parseable(obs.METRICS.render())


# ----------------------------------------------------------------------
# spans, funnel, traces
# ----------------------------------------------------------------------
class TestSpanAndTrace:
    def test_span_records_into_current_trace(self):
        trace = RoundTrace(round_index=7)
        with use_trace(trace):
            assert current_trace() is trace
            with obs.span("draft"):
                pass
            with obs.span("draft"):
                pass
            obs.funnel("drafted", 5)
        assert current_trace() is None
        assert trace.stages["draft"] > 0
        assert trace.funnel == {"drafted": 5}

    def test_failing_span_still_records(self):
        trace = RoundTrace()
        with use_trace(trace):
            with pytest.raises(RuntimeError):
                with obs.span("measure"):
                    raise RuntimeError("boom")
        assert "measure" in trace.stages

    def test_nested_traces_innermost_wins(self):
        outer, inner = RoundTrace(), RoundTrace()
        with use_trace(outer):
            with use_trace(inner):
                obs.funnel("drafted", 1)
            assert current_trace() is outer
        assert inner.funnel == {"drafted": 1}
        assert outer.funnel == {}

    def test_span_without_trace_is_fine(self):
        before = obs.STAGE_SECONDS.labels(stage="lower").snapshot()[3]
        with obs.span("lower"):
            pass
        assert obs.STAGE_SECONDS.labels(stage="lower").snapshot()[3] == before + 1


class TestTraceSink:
    def test_write_read_roundtrip(self, tmp_path):
        sink = TraceSink(tmp_path / "traces")
        sink.write("job-1", {"round": 1, "total_s": 0.5})
        sink.write("job-1", {"round": 2, "total_s": 0.25})
        assert sink.jobs() == ["job-1"]
        assert [r["round"] for r in sink.read("job-1")] == [1, 2]

    def test_torn_line_skipped(self, tmp_path):
        sink = TraceSink(tmp_path / "traces")
        sink.write("j", {"round": 1})
        path = sink._path("j")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"round": 2')  # crash mid-write
        assert [r["round"] for r in sink.read("j")] == [1]

    def test_write_after_torn_tail_starts_a_fresh_line(self, tmp_path):
        sink = TraceSink(tmp_path / "traces")
        sink.write("j", {"round": 0})
        sink.write("j", {"round": 1})
        with open(sink._path("j"), "a", encoding="utf-8") as fh:
            fh.write('{"round": 2, "tot')  # crash mid-write: no newline
        sink.write("j", {"round": 2})
        sink.write("j", {"round": 3})
        assert [r["round"] for r in sink.read("j")] == [0, 1, 2, 3]

    def test_cap_trim_is_an_atomic_rewrite(self, tmp_path, monkeypatch):
        """A crash while the active file's older half is dropped must
        leave the whole trace, not a truncated file."""
        sink = TraceSink(tmp_path, max_bytes=10_000)
        for i in range(8):
            sink.write("solo", {"round": i, "pad": "y" * 40})
        sink.max_bytes = 300

        def crash(self, target):
            raise OSError("crash before the rename")

        with monkeypatch.context() as patched:
            patched.setattr(Path, "replace", crash)
            with pytest.raises(OSError):
                sink.write("solo", {"round": 8, "pad": "y" * 40})
        assert [r["round"] for r in sink.read("solo")] == list(range(9))
        sink.write("solo", {"round": 9, "pad": "y" * 40})  # the trim lands
        rounds = [r["round"] for r in sink.read("solo")]
        assert rounds == list(range(rounds[0], 10)) and rounds[0] > 0
        assert not list(tmp_path.glob("*.tmp"))

    def test_job_id_sanitized(self, tmp_path):
        sink = TraceSink(tmp_path / "traces")
        sink.write("../../evil/job", {"round": 1})
        files = list((tmp_path / "traces").glob("*.jsonl"))
        assert len(files) == 1
        assert (tmp_path / "traces") in files[0].parents

    def test_rotation_drops_oldest_files(self, tmp_path):
        sink = TraceSink(tmp_path / "traces", max_bytes=400)
        big = {"pad": "x" * 100}
        for job in ("a", "b", "c", "d", "e"):
            sink.write(job, big)
        files = sink.jobs()
        assert "e" in files  # the just-written file survives
        assert len(files) < 5  # older ones rotated out

    def test_single_file_over_cap_keeps_newest_half(self, tmp_path):
        sink = TraceSink(tmp_path / "traces", max_bytes=300)
        for i in range(10):
            sink.write("solo", {"round": i, "pad": "y" * 40})
        rounds = [r["round"] for r in sink.read("solo")]
        assert rounds  # something survived
        assert rounds[-1] == 9  # ... and it is the newest tail
        assert rounds == sorted(rounds)

    def test_below_cap_write_lists_no_directory(self, tmp_path, monkeypatch):
        """The sink scans once, then counts its own appends: only a
        write that crosses the cap looks at the directory again."""
        sink = TraceSink(tmp_path / "traces", max_bytes=400)
        sink.write("a", {"pad": "x" * 100})  # the one unconditional scan

        def listed(*args, **kwargs):
            raise AssertionError("a below-cap write listed the directory")

        with monkeypatch.context() as patched:
            patched.setattr(Path, "glob", listed)
            patched.setattr(os, "scandir", listed)
            patched.setattr(os, "listdir", listed)
            sink.write("a", {"pad": "x" * 100})
            sink.write("b", {"pad": "x" * 100})
            with pytest.raises(AssertionError, match="listed"):
                sink.write("c", {"pad": "x" * 100})  # crosses 400 bytes
        sink.write("d", {"pad": "x" * 100})  # the rotation lands
        files = sink.jobs()
        assert "d" in files and len(files) < 4

    def test_summarize_accepts_both_wire_forms(self, tmp_path):
        sink = TraceSink(tmp_path / "traces")
        sink.write("a", {"round": 1, "total_s": 1.0, "stages": {"draft": 0.5}})
        sink.write(
            "b",
            {
                "round": 1,
                "round_s": 2.0,
                "stages": {"draft": 0.25},
                "funnel": {"measured": 10},
            },
        )
        summary = sink.summarize()
        assert summary["rounds"] == 2
        assert summary["jobs"] == 2
        assert summary["total_s"] == pytest.approx(3.0)
        assert summary["stages"]["draft"] == pytest.approx(0.75)
        assert summary["funnel"] == {"measured": 10}


# ----------------------------------------------------------------------
# tuner instrumentation
# ----------------------------------------------------------------------
class TestTunerTrace:
    @pytest.fixture(scope="class")
    def tuned(self):
        subgraphs = network_tasks("bert_tiny", batch=1, top_k=1)
        tuner = api.build_tuner("pruner", subgraphs, get_device("a100"))
        snapshots = []
        result = tuner.tune(3, progress=snapshots.append)
        return tuner, result, snapshots

    def test_stages_sum_to_round_total(self, tuned):
        tuner, _, _ = tuned
        trace = tuner.last_trace
        assert trace is not None
        assert trace.stages  # draft/lower/verify at minimum
        stage_sum = sum(trace.stages.values())
        assert 0 < stage_sum <= trace.total
        # the instrumented stages are the round: little time unaccounted
        assert stage_sum >= 0.5 * trace.total

    def test_funnel_is_monotone(self, tuned):
        tuner, _, _ = tuned
        funnel = tuner.last_trace.funnel
        assert funnel["drafted"] >= funnel["gated"] >= funnel["measured"] > 0

    def test_progress_carries_telemetry(self, tuned):
        _, _, snapshots = tuned
        assert len(snapshots) == 3
        for snap in snapshots:
            assert snap.round_s > 0
            assert snap.stages and snap.funnel
            wire = snap.to_dict()
            assert wire["stages"] == snap.stages
            assert wire["round_s"] == snap.round_s

    def test_global_counters_advanced(self, tuned):
        # the run above measured through MeasureRunner and the policies
        assert obs.ROUNDS.value >= 3
        assert obs.MEASURED.value > 0
        assert obs.FUNNEL.labels(stage="drafted").value > 0


# ----------------------------------------------------------------------
# serve layer: GET /metrics over a real socket
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class Stack:
    def __init__(self, cache_dir, **engine_kwargs) -> None:
        self.engine = JobEngine(cache_dir, **engine_kwargs)
        self.app = ServeApp(self.engine)
        self.server = make_server(self.app, "127.0.0.1", 0)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.client = ServeClient(self.url, timeout=10.0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def scrape(self) -> tuple[str, str]:
        with urllib.request.urlopen(f"{self.url}/metrics", timeout=10) as resp:
            return resp.read().decode("utf-8"), resp.headers["Content-Type"]

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        self.engine.shutdown()


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def stack(tmp_path, clock):
    s = Stack(tmp_path / "cache", lease_ttl=30.0, clock=clock)
    yield s
    s.close()


REQUIRED_FAMILIES = (
    "repro_jobs",
    "repro_jobs_queue_depth",
    "repro_leases_active",
    "repro_lease_age_seconds_max",
    "repro_rounds_per_second",
    "repro_http_request_seconds",
    "repro_http_requests_total",
    "repro_stage_seconds",
)


class TestServeMetrics:
    def test_scrape_with_active_job(self, stack, clock):
        job_id = stack.client.submit("bert_tiny", rounds=2, top_k_tasks=1)
        text, _ = stack.scrape()
        assert 'repro_jobs{state="pending"} 1' in text
        assert "repro_jobs_queue_depth 1" in text

        leased = stack.client.lease("worker-1")
        assert leased is not None and leased["job"]["job_id"] == job_id
        clock.advance(5.0)
        text, ctype = stack.scrape()
        assert ctype == PROM_CONTENT_TYPE
        assert 'repro_jobs{state="running"} 1' in text
        assert "repro_jobs_queue_depth 0" in text
        assert "repro_leases_active 1" in text
        age = [
            ln
            for ln in text.splitlines()
            if ln.startswith("repro_lease_age_seconds_max")
        ][0]
        assert float(age.split(" ")[1]) == pytest.approx(5.0)
        seen = _assert_prometheus_parseable(text)
        for family in REQUIRED_FAMILIES:
            assert any(name.startswith(family) for name in seen), family
        # the scrapes themselves were counted by the HTTP timing wrapper
        assert 'route="metrics"' in text

    def test_heartbeat_progress_lands_in_metrics_and_traces(self, stack):
        stack.client.submit("bert_tiny", rounds=2, top_k_tasks=1)
        leased = stack.client.lease("worker-2")
        lease_id = leased["lease_id"]
        progress = {
            "round": 1,
            "rounds": 2,
            "round_s": 0.5,
            "stages": {"draft": 0.2, "measure": 0.1},
            "funnel": {"drafted": 50, "measured": 10},
        }
        stack.client.heartbeat(lease_id, "worker-2", progress=progress)
        # the same round re-sent by a keep-alive beat counts once
        stack.client.heartbeat(lease_id, "worker-2", progress=progress)
        text, _ = stack.scrape()
        assert 'repro_runner_rounds_total{runner="worker-2"} 1' in text
        assert (
            'repro_runner_stage_seconds_count{runner="worker-2",stage="draft"} 1'
            in text
        )
        job_id = leased["job"]["job_id"]
        rows = stack.engine.traces.read(job_id)
        assert len(rows) == 1
        assert rows[0]["runner"] == "worker-2"
        assert rows[0]["stages"] == {"draft": 0.2, "measure": 0.1}

    def test_metrics_scrape_reaps_expired_leases(self, stack, clock):
        stack.client.submit("bert_tiny", rounds=2, top_k_tasks=1)
        stack.client.lease("worker-3")
        clock.advance(31.0)  # past the 30 s ttl
        text, _ = stack.scrape()
        # the idle probe itself requeued the job — no stale running state
        assert "repro_leases_active 0" in text
        assert 'repro_jobs{state="pending"} 1' in text
        assert 'repro_jobs{state="running"} 0' in text
        # ... and the requeue reached the ledger (crash safety)
        ledger = (
            stack.engine.store.root / "jobs.jsonl"
        ).read_text()
        assert '"state": "pending"' in ledger or '"pending"' in ledger

    def test_unknown_route_not_labeled(self, stack):
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{stack.url}/no/such/route", timeout=10)
        text, _ = stack.scrape()
        assert "no/such/route" not in text

    def test_healthz_counts_match_metrics(self, stack):
        stack.client.submit("bert_tiny", rounds=2, top_k_tasks=1)
        health = stack.client.healthz()
        text, _ = stack.scrape()
        assert f"repro_jobs_queue_depth {health['jobs']['pending']}" in text
