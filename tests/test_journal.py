"""The journal primitives (:mod:`repro.journal`) and what every store
built on them promises: a crash at any byte loses no complete row and
poisons no later append, garbage never raises out of a reader, reads
never write, and a cache dir written by the previous version reads the
same.  (The torn-tail examples sit with their stores, in
``test_service.py`` and ``test_obs.py``.)"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import api
from repro.costmodel import TenSetMLP
from repro.errors import CostModelError
from repro.hardware.device import get_device
from repro.journal import (
    atomic_write_lines,
    iter_jsonl,
    read_json_index,
)
from repro.obs import TraceSink
from repro.serve.cli import main as cli_main
from repro.serve.engine import LEDGER_NAME, JobEngine
from repro.serve.protocol import checkpoint_from_wire, unwire_float
from repro.serve.runner import drain
from repro.service import JobQueue, ModelStore, RecordStore, StoreKey, TuneJob
from repro.service.models import state_from_wire, state_to_wire
from repro.workloads import network_tasks

FIXTURES = Path(__file__).parent / "fixtures"
KEY = StoreKey("wl", "a100", "pruner")


def _row(i: int, **extra) -> dict:
    row = {"v": 1, "task_key": "t", "config_key": f"c{i}", "latency": 1e-3 * (i + 1)}
    return {**row, **extra}


def _parsed(path: Path) -> list[dict]:
    return [row for _, row in iter_jsonl(path) if row is not None]


# ----------------------------------------------------------------------
# crash at every byte of the write boundaries that remain
# ----------------------------------------------------------------------
class TestCrashAtEveryByte:
    def test_append_lines_truncated_anywhere(self, tmp_path):
        """Cut the last append at every byte offset: a reopened store
        yields every complete row and no partial one, and re-sending the
        same rows plus a new one ends with each row exactly once."""
        store = RecordStore(tmp_path)
        path = store.path_for(KEY)
        store.append_rows(KEY, [_row(0), _row(1)])
        base = path.read_bytes()
        last = [_row(2), _row(3)]
        store.append_rows(KEY, last)
        tail = path.read_bytes()[len(base):]
        ends = [len(json.dumps(last[0])), len(tail) - 1]  # each row's last byte
        for cut in range(len(tail) + 1):
            path.write_bytes(base + tail[:cut])
            landed = sum(cut >= end for end in ends)
            got = [r["config_key"] for r in store.load_rows(KEY)]
            assert got == ["c0", "c1", "c2", "c3"][: 2 + landed], cut
            assert store.append_rows(KEY, last + [_row(4)]) == 3 - landed, cut
            got = [r["config_key"] for r in store.load_rows(KEY)]
            assert got[:2] == ["c0", "c1"], cut
            assert sorted(got) == ["c0", "c1", "c2", "c3", "c4"], cut

    def test_atomic_write_interrupted_before_or_after_rename(self, tmp_path):
        """A rewrite that dies before its rename leaves a partial
        ``.tmp`` beside an intact file; after the rename the new content
        is complete.  Either way the next rewrite loses nothing."""
        path = tmp_path / "index.json"
        old = [{"job_id": "a", "n": 1}, {"job_id": "b", "n": 2}]
        new = old + [{"job_id": "c", "n": 3}]
        atomic_write_lines(path, [json.dumps(r) for r in old])
        body = "".join(json.dumps(r) + "\n" for r in new).encode()
        tmp = path.with_name(path.name + ".tmp")
        for cut in range(len(body) + 1):
            tmp.write_bytes(body[:cut])  # died `cut` bytes into the temp file
            assert _parsed(path) == old, cut
        atomic_write_lines(path, [json.dumps(r) for r in new])  # the retry
        assert _parsed(path) == new
        assert not tmp.exists()

    def test_ledger_append_truncated_anywhere(self, tmp_path):
        """Cut the ledger's last append at every byte offset: that job
        reads as its previous row, the other job is untouched, and the
        next append starts on a fresh line."""
        path = tmp_path / "jobs.jsonl"
        queue = JobQueue()
        first = queue.submit(TuneJob("bert_tiny"))
        other = queue.submit(TuneJob("gpt2"))
        queue.append_ledger(path, [first, other])
        assert queue.claim(runner_id="r1").job_id == first
        queue.append_ledger(path, [first])
        base = path.read_bytes()
        running = queue.get(first).to_dict()
        pending = queue.get(other).to_dict()
        queue.mark_done(first)
        queue.append_ledger(path, [first])  # the append that gets cut
        done = queue.get(first).to_dict()
        tail = path.read_bytes()[len(base):]
        queue.cancel(other)
        for cut in range(len(tail) + 1):
            path.write_bytes(base + tail[:cut])
            landed = cut >= len(tail) - 1  # the whole row, newline or not
            expected = [done if landed else running, pending]
            assert [j.to_dict() for j in JobQueue.load_ledger(path)] == expected, cut
            queue.append_ledger(path, [other])
            expected[1] = queue.get(other).to_dict()
            assert [j.to_dict() for j in JobQueue.load_ledger(path)] == expected, cut
            assert path.read_bytes().startswith(base + tail[:cut])  # appended to, only

    def test_submit_appends_one_row_and_reads_nothing(self, tmp_path, monkeypatch):
        """A state change costs one appended row however long the ledger
        is: nothing parses the 400 jobs already there."""
        path = tmp_path / LEDGER_NAME
        queue = JobQueue()
        ids = [queue.submit(TuneJob("bert_tiny", seed=i)) for i in range(400)]
        queue.append_ledger(path, ids)
        engine = JobEngine(tmp_path)
        assert engine.status()["pending"] == 400
        before = path.read_bytes()

        def reread(*args, **kwargs):
            raise AssertionError("a state change re-read a journal")

        for module in ("repro.journal", "repro.service.jobs", "repro.serve.engine"):
            monkeypatch.setattr(f"{module}.iter_jsonl", reread)
        job_id = engine.submit("bert_tiny", rounds=1, scale="smoke", top_k_tasks=1)
        after = path.read_bytes()
        assert after.startswith(before)
        (row,) = after[len(before):].splitlines()
        assert json.loads(row) == engine.queue.get(job_id).to_dict()


# ----------------------------------------------------------------------
# garbage in, no exception out, no well-formed row lost
# ----------------------------------------------------------------------
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_WRONG_V = st.sampled_from([0, 2, 999, "1", None, [1], {"v": 1}])
#: one line of damage: raw bytes, a non-dict JSON value, a row of another
#: schema version, or a well-formed row cut short
_DAMAGE = st.one_of(
    st.binary(max_size=40),
    _JSON.filter(lambda v: not isinstance(v, dict)).map(lambda v: json.dumps(v).encode()),
    _WRONG_V.map(lambda v: json.dumps(_row(0, v=v)).encode()),
    st.integers(1, 30).map(lambda n: json.dumps(_row(0))[:n].encode()),
)


def _spells_current_row(line: bytes) -> bool:
    try:
        row = json.loads(line.decode("utf-8", "surrogateescape"))
    except ValueError:
        return False
    return isinstance(row, dict) and row.get("v") == 1


@st.composite
def _damaged_file(draw, good):
    """``(file bytes, the well-formed rows in it, in order)``: rows from
    ``good`` interleaved with lines of damage and maybe a torn tail."""
    parts: list[bytes] = []
    rows: list[dict] = []
    for i in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            rows.append(good(i))
            parts.append(json.dumps(rows[-1]).encode())
        else:
            junk = draw(_DAMAGE)
            # damage that happens to spell a current-version row is not damage
            assume(not any(_spells_current_row(line) for line in junk.splitlines()))
            parts.append(junk)
    tail = draw(st.binary(max_size=8).filter(lambda b: b"\n" not in b))
    assume(not any(_spells_current_row(line) for line in tail.splitlines()))
    return b"".join(part + b"\n" for part in parts) + tail, rows


def _job(i: int) -> dict:
    return TuneJob("bert_tiny", job_id=f"job-{i}", submit_seq=i).to_dict()


class TestGarbageTolerance:
    @settings(max_examples=60, deadline=None)
    @given(_damaged_file(lambda i: _row(i)))
    def test_jsonl_readers_keep_every_well_formed_row(self, case):
        body, rows = case
        with tempfile.TemporaryDirectory() as tmp:
            store = RecordStore(tmp)
            sink = TraceSink(tmp)
            for path in (store.path_for(KEY), sink._path("j")):
                path.write_bytes(body)
            current = [r for r in _parsed(store.path_for(KEY)) if r.get("v") == 1]
            assert current == rows
            assert store.load_rows(KEY) == rows
            assert [r for r in sink.read("j") if r.get("v") == 1] == rows
            # the damaged file still takes appends, and dedups against
            # every row that survived
            assert store.append_rows(KEY, rows + [_row(99)]) == 1
            assert store.load_rows(KEY) == rows + [_row(99)]
            assert store.path_for(KEY).read_bytes().startswith(body)

    @settings(max_examples=60, deadline=None)
    @given(_damaged_file(_job))
    def test_ledger_reader_keeps_every_well_formed_job(self, case):
        body, rows = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "jobs.jsonl"
            path.write_bytes(body)
            jobs = [job.to_dict() for job in JobQueue.load_ledger(path)]
            assert [job for job in jobs if job in rows] == rows

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=200) | _JSON.map(lambda v: json.dumps(v).encode()))
    def test_json_object_readers_never_raise(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            models = ModelStore(tmp)
            models.root.mkdir()
            models._index_path().write_bytes(body)
            models.path_for(KEY, "mlp").write_bytes(body)
            (Path(tmp) / RecordStore.INDEX_NAME).write_bytes(body)
            assert isinstance(read_json_index(models._index_path()), dict)
            wire = models.load_wire(KEY, "mlp")
            assert wire is None or isinstance(wire, str)  # the file, shipped as is
            assert checkpoint_from_wire(wire) is None  # ...and a cold start
            if body:
                with pytest.raises(CostModelError):
                    state_from_wire(body)
            assert models.trained_trials(KEY, "mlp") >= 0
            assert isinstance(models.stats(), list)
            assert isinstance(RecordStore(tmp).keys(), list)
            # ...and the next save repairs both files
            assert models.save_state(KEY, TenSetMLP().save_state(), trained_trials=3)
            assert checkpoint_from_wire(models.load_wire(KEY, "mlp"))["kind"] == "mlp"
            assert models.trained_trials(KEY, "mlp") == 3


# ----------------------------------------------------------------------
# a cache dir the previous version wrote (fixtures/cache_dir, captured
# at the parent commit with ``last_used`` stamps in both indexes)
# ----------------------------------------------------------------------
GOLDEN = json.loads((FIXTURES / "cache_dir_golden.json").read_text())


@pytest.fixture
def parent_cache(tmp_path):
    return Path(shutil.copytree(FIXTURES / "cache_dir", tmp_path / "cache"))


def _snapshot(root: Path) -> dict:
    return {
        str(p.relative_to(root)): (p.read_bytes(), p.stat().st_mtime_ns)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestParentCacheDir:
    def test_reads_match_the_parent_and_change_no_file(self, parent_cache):
        before = _snapshot(parent_cache)
        buf = io.StringIO()
        assert cli_main(["status", "--cache-dir", str(parent_cache)], out=buf) == 0
        assert buf.getvalue().splitlines()[1:] == GOLDEN["status"]
        engine = JobEngine(parent_cache)
        rows = engine.export()
        assert len(rows) == GOLDEN["export_rows"]
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == GOLDEN["export_sha256"]
        for method, expected in GOLDEN["best_schedule"].items():
            got = engine.best_schedule("bert_tiny", method=method, top_k_tasks=1)
            assert got == expected
        assert _snapshot(parent_cache) == before  # bytes and mtimes

    def test_warm_start_matches_the_parent(self, parent_cache):
        """The golden was taken through the old in-process cache path; a
        job over the same cache dir seeds and checkpoints the same way."""
        engine = JobEngine(parent_cache)
        job_id = engine.submit(
            "bert_tiny", method="ansor", rounds=3, scale="smoke", seed=7, top_k_tasks=1
        )
        drain(engine)
        result = engine.result(job_id)
        expected = GOLDEN["warm_start"]
        assert result["warm_model"] == expected["warm_model"]
        assert result["best"] == expected["best"]
        assert unwire_float(result["final_latency"]) == expected["final_latency"]
        trials = ("total_trials", "fresh_trials", "seeded_trials")
        assert [result[k] for k in trials] == [expected[k] for k in trials]
        (records,) = parent_cache.glob("*ansor*.jsonl")
        original = (FIXTURES / "cache_dir" / records.name).read_bytes()
        assert records.read_bytes().startswith(original)  # appended to, only
        assert hashlib.sha256(records.read_bytes()).hexdigest() == expected["records_sha256"]
        # an index entry the parent stamped keeps its extra field
        index = json.loads((parent_cache / "index.json").read_text())
        assert all("last_used" in entry for entry in index.values())

    def test_reads_do_not_write(self, parent_cache):
        """Two keys per store, and every read goes to the one that is
        not the most recently used: the parent restamped ``last_used``
        (an index rewrite) on exactly these reads."""
        store, models = RecordStore(parent_cache), ModelStore(parent_cache)
        ansor = next(k for k in store.keys() if k.method == "ansor")
        pruner = next(k for k in store.keys() if k.method == "pruner")
        wire = state_to_wire(TenSetMLP().save_state(), trained_trials=1)
        assert models.save_wire(pruner, "mlp", wire)  # second checkpoint
        indexes = [parent_cache / "index.json", models._index_path()]
        before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in indexes]

        subs = network_tasks("bert_tiny", batch=1, top_k=1)
        tasks = api.tasks_for("ansor", subs, get_device("a100"))
        assert len(store.load_records(ansor, {t.key: t.space for t in tasks})) == 20
        assert models.load_wire(ansor, "gbdt") is not None
        engine = JobEngine(parent_cache)
        engine.submit("bert_tiny", method="ansor", rounds=2, scale="smoke", top_k_tasks=1)
        lease = engine.lease("r1")
        assert len(lease["seed_rows"]) == 20 and lease["checkpoint"] is not None

        assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in indexes] == before
        assert not list(parent_cache.rglob("*.tmp"))
