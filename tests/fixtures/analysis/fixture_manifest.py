"""The manifest the analysis tests use against the badpkg fixtures.

Kept next to the fixtures (not inline in the tests) so the golden JSON
under ``golden/`` can be regenerated with the exact same declarations:

    PYTHONPATH=src:tests/fixtures/analysis python - <<'EOF'
    import json, pathlib
    from fixture_manifest import FIXTURE_MANIFEST, BADPKG, GOLDEN
    from repro.analysis import analyze_paths
    report = analyze_paths([BADPKG], manifest=FIXTURE_MANIFEST)
    by_mod = {}
    for f in report.findings:
        by_mod.setdefault(pathlib.Path(f.path).stem, []).append(f.to_dict())
    for stem, rows in by_mod.items():
        (GOLDEN / f"{stem}.json").write_text(json.dumps(rows, indent=2) + "\n")
    EOF
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.manifest import Manifest, ModuleLock, SharedClass

HERE = Path(__file__).resolve().parent
BADPKG = HERE / "badpkg"
GOLDEN = HERE / "golden"

FIXTURE_MANIFEST = Manifest(
    shared_classes=(
        SharedClass(
            module="badpkg/unlocked.py",
            name="SharedCounter",
            node="badpkg.unlocked.SharedCounter",
            locks={"_lock": ("total",)},
        ),
    ),
    module_locks=(
        ModuleLock(
            module="badpkg/cycle.py",
            name="_LOCK_A",
            node="badpkg.cycle._LOCK_A",
        ),
        ModuleLock(
            module="badpkg/cycle.py",
            name="_LOCK_B",
            node="badpkg.cycle._LOCK_B",
        ),
    ),
    hot_packages=("badpkg/",),
)
