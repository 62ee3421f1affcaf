"""Tests for repro.analysis: rules vs golden fixtures, suppressions,
the static lock graph, and the meta-test that keeps the real tree clean.

The known-bad fixture package lives in ``tests/fixtures/analysis/
badpkg``; its expected findings are the checked-in golden JSON under
``tests/fixtures/analysis/golden`` (regeneration recipe in
``fixture_manifest.py``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_MANIFEST,
    analyze_paths,
    default_rules,
    load_modules,
)
from repro.analysis.lockcheck import _cycle_in
from repro.analysis.locks import static_edges
from repro.analysis.manifest import Manifest, SharedClass
from repro.errors import AnalysisError

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"
sys.path.insert(0, str(FIXTURES))

from fixture_manifest import BADPKG, FIXTURE_MANIFEST, GOLDEN  # noqa: E402


# ----------------------------------------------------------------------
# fixtures vs goldens
# ----------------------------------------------------------------------
def _by_module(report):
    out = {}
    for finding in report.findings:
        out.setdefault(Path(finding.path).stem, []).append(finding.to_dict())
    return out


def test_badpkg_matches_goldens():
    report = analyze_paths([BADPKG], manifest=FIXTURE_MANIFEST)
    got = _by_module(report)
    golden_files = sorted(GOLDEN.glob("*.json"))
    assert golden_files, "golden findings are missing"
    for path in golden_files:
        expected = json.loads(path.read_text())
        assert got.pop(path.stem) == expected, f"drift vs {path.name}"
    # no fixture module may produce findings the goldens don't record
    assert got == {}


@pytest.mark.parametrize(
    "stem,rules",
    [
        ("unlocked", {"lock-unguarded-write", "lock-unguarded-read"}),
        ("cycle", {"lock-cycle"}),
        ("hot_time", {"det-wall-clock", "det-unseeded-rng"}),
        ("swallow", {"hyg-broad-except"}),
        ("salted_hash", {"det-salted-hash"}),
    ],
)
def test_each_snippet_trips_exactly_its_rules(stem, rules):
    report = analyze_paths([BADPKG], manifest=FIXTURE_MANIFEST)
    got = {
        f.rule for f in report.findings if Path(f.path).stem == stem
    }
    assert got == rules


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def _hot_manifest():
    return Manifest(hot_packages=("pkg/",))


def _write_pkg(tmp_path, body: str) -> Path:
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(body)
    return pkg


def test_suppression_with_reason_silences(tmp_path):
    pkg = _write_pkg(
        tmp_path,
        "import time\n\n\n"
        "def stamp():\n"
        "    # repro: ignore[det-wall-clock] fixture exercises suppression\n"
        "    return time.time()\n",
    )
    report = analyze_paths([pkg], manifest=_hot_manifest())
    assert report.ok
    assert report.suppressed == 1


def test_suppression_without_reason_is_flagged(tmp_path):
    pkg = _write_pkg(
        tmp_path,
        "import time\n\n\n"
        "def stamp():\n"
        "    return time.time()  # repro: ignore[det-wall-clock]\n",
    )
    report = analyze_paths([pkg], manifest=_hot_manifest())
    assert [f.rule for f in report.findings] == ["sup-missing-reason"]
    assert report.suppressed == 1


def test_unused_suppression_is_flagged(tmp_path):
    pkg = _write_pkg(
        tmp_path,
        "# repro: ignore[det-wall-clock] nothing here reads the clock\n"
        "X = 1\n",
    )
    report = analyze_paths([pkg], manifest=_hot_manifest())
    assert [f.rule for f in report.findings] == ["sup-unused"]


def test_docstring_mention_of_syntax_is_not_a_suppression(tmp_path):
    pkg = _write_pkg(
        tmp_path,
        '"""Docs quoting the marker: # repro: ignore[det-wall-clock] x."""\n'
        "X = 1\n",
    )
    report = analyze_paths([pkg], manifest=_hot_manifest())
    assert report.ok


# ----------------------------------------------------------------------
# static lock graph of the real tree
# ----------------------------------------------------------------------
def test_real_tree_lock_graph_edges_and_acyclicity():
    modules = load_modules([REPO / "src" / "repro"])
    edges = static_edges(modules, DEFAULT_MANIFEST)
    assert set(edges) == {
        (
            "obs.registry.MetricsRegistry._lock",
            "obs.registry.MetricFamily._lock",
        ),
        (
            "repro.journal._LEDGER_LOCK",
            "service.jobs.JobQueue._cond",
        ),
    }
    assert _cycle_in(set(edges)) is None


def test_manifest_modules_all_exist():
    modules = load_modules([REPO / "src" / "repro"])
    rels = {m.rel for m in modules}

    def present(suffix: str) -> bool:
        return any(rel.endswith(suffix) for rel in rels)

    for spec in DEFAULT_MANIFEST.shared_classes:
        assert present(spec.module), f"stale manifest module {spec.module}"
    for mlock in DEFAULT_MANIFEST.module_locks:
        assert present(mlock.module), f"stale manifest module {mlock.module}"


def test_helper_methods_exist_on_declared_classes():
    # a renamed helper must break this test, not silently unguard code
    modules = load_modules([REPO / "src" / "repro"])
    import ast

    checked = 0
    for spec in DEFAULT_MANIFEST.shared_classes:
        for module in modules:
            if not module.rel.endswith(spec.module):
                continue
            classes = {
                node.name: node
                for node in ast.walk(module.tree)
                if isinstance(node, ast.ClassDef)
            }
            assert spec.name in classes, f"{spec.name} gone from {spec.module}"
            methods = {
                item.name
                for item in classes[spec.name].body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for helper in spec.helpers:
                assert helper in methods, (
                    f"helper {spec.name}.{helper} no longer exists"
                )
                checked += 1
    # every declared helper was looked at, and there is one to look at
    declared = sum(len(spec.helpers) for spec in DEFAULT_MANIFEST.shared_classes)
    assert checked == declared > 0


# ----------------------------------------------------------------------
# the meta-test: the real tree is clean, with zero suppressions
# ----------------------------------------------------------------------
def test_real_tree_is_clean_via_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src/repro", "--format=json"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert set(payload) == {"ok", "files", "suppressed", "counts", "findings"}
    assert payload["ok"] is True
    assert payload["findings"] == []
    # acceptance bar: no suppressions hiding lock/det findings anywhere
    assert payload["suppressed"] == 0
    assert payload["files"] > 100


def test_cli_exit_codes(tmp_path):
    from repro.analysis.cli import main

    bad = tmp_path / "pkg"
    bad.mkdir()
    (bad / "mod.py").write_text("def f():\n    try:\n        pass\n"
                                "    except Exception:\n        pass\n")
    assert main([str(bad)]) == 1  # findings
    assert main([str(tmp_path / "missing")]) == 2
    assert main([str(bad), "--rules", "nonsense"]) == 2
    assert main([str(bad), "--rules", "locks,determinism"]) == 0
    # the inline marker is the one escape hatch: no baseline file, no flags
    assert sorted(default_rules()) == ["determinism", "hygiene", "imports", "locks"]
    for gone in ("--baseline=x.json", "--no-baseline", "--write-baseline"):
        with pytest.raises(SystemExit) as exc:
            main([str(bad), gone])
        assert exc.value.code == 2


def test_unused_imports_are_found_where_ruff_finds_them(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from pkg.mod import helper\n")  # re-export
    (pkg / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os\n"  # 2: unused
        "import sys\n"
        "import json  # noqa: F401\n"
        "import re  # noqa: E402\n"  # 5: another code's noqa
        "import os.path as osp\n"  # 6: unused alias
        "from typing import TYPE_CHECKING, Any\n"
        "from collections import (\n"
        "    OrderedDict,  # noqa: F401\n"
        "    deque,\n"  # 10: the noqa above covers one alias
        ")\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "try:\n"
        "    import numpy as np\n"  # 15: rebound, never read
        "except ImportError:\n"
        "    np = None\n"
        "__all__ = ['Any']\n"
        "def helper(x: 'Path') -> int:\n"
        "    import shutil\n"  # function scope: not this rule's
        "    return sys.maxsize\n"
    )
    report = analyze_paths([pkg], rules=["imports"])
    assert [(Path(f.path).name, f.line, f.symbol) for f in report.findings] == [
        ("mod.py", 2, "os"),
        ("mod.py", 5, "re"),
        ("mod.py", 6, "osp"),
        ("mod.py", 10, "deque"),
        ("mod.py", 15, "np"),
    ]
    assert {f.rule for f in report.findings} == {"imp-unused"}


def test_whole_tree_has_no_unused_imports():
    roots = [REPO / name for name in ("src", "tests", "examples", "benchmarks")]
    report = analyze_paths(roots, rules=["imports"])
    assert report.findings == []
    assert report.files > 150


def test_analyze_paths_rejects_syntax_errors(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    with pytest.raises(AnalysisError, match="cannot parse"):
        analyze_paths([broken], manifest=Manifest())


def test_guarded_access_and_helper_assumption(tmp_path):
    # a guarded-helper body is analyzed as if the lock were held, and
    # calling it without the lock is itself a finding
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "import threading\n\n\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.items = []\n\n"
        "    def _drop(self):\n"
        "        self.items.clear()\n\n"
        "    def reset(self):\n"
        "        with self._lock:\n"
        "            self._drop()\n\n"
        "    def reset_racy(self):\n"
        "        self._drop()\n"
    )
    manifest = Manifest(
        shared_classes=(
            SharedClass(
                module="pkg/mod.py",
                name="Box",
                node="pkg.mod.Box",
                locks={"_lock": ("items",)},
                helpers={"_drop": "_lock"},
            ),
        )
    )
    report = analyze_paths([pkg], manifest=manifest)
    assert [(f.rule, f.symbol) for f in report.findings] == [
        ("lock-helper-unlocked", "Box.reset_racy")
    ]
