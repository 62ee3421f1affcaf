"""The analysis engine: source loading, rule dispatch and suppressions.

The engine owns everything rule-independent:

* :func:`load_modules` parses every ``*.py`` under the scan roots into
  :class:`ModuleInfo` records with posix-relative paths (relative to
  each root's *parent*, so scanning ``src/repro`` yields
  ``repro/obs/registry.py`` — the form the manifest matches against).
* :func:`analyze_paths` runs the rule set, applies inline suppressions
  (``# repro: ignore[rule-id] reason``) and returns a :class:`Report`.

The inline marker is the only way to excuse a finding, so every excuse
sits next to the code it excuses: a ``# repro: ignore[rule-id]`` (or a
comma list, or ``ignore[*]``) comment on the finding's line or the line
directly above silences it.  A suppression must carry a reason after
the bracket — reasonless ones produce a ``sup-missing-reason`` finding —
and one that silences nothing produces ``sup-unused``, so stale
annotations rot out.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.analysis.findings import ERROR, WARNING, Finding
from repro.analysis.manifest import DEFAULT_MANIFEST, Manifest
from repro.errors import AnalysisError

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([^\]]*)\]\s*(.*)$")


@dataclass
class ModuleInfo:
    """One parsed source file, as the rules see it."""

    path: Path  # absolute filesystem path
    rel: str  # posix path relative to the scan root's parent
    tree: ast.Module
    lines: list[str]


@dataclass
class _Suppression:
    line: int
    rules: tuple[str, ...]  # rule ids, or ("*",)
    reason: str
    used: bool = False

    def covers(self, rule: str) -> bool:
        return "*" in self.rules or rule in self.rules


@dataclass
class Report:
    """The outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return dict(sorted(out.items()))

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "files": self.files,
            "suppressed": self.suppressed,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
        }


# ----------------------------------------------------------------------
# source loading
# ----------------------------------------------------------------------
def _iter_py_files(root: Path) -> Iterable[Path]:
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        yield path


def load_modules(roots: Iterable[str | Path]) -> list[ModuleInfo]:
    """Parse every python file under ``roots`` into :class:`ModuleInfo`.

    A file that fails to parse raises :class:`AnalysisError` — analysis
    over syntactically broken code would silently skip rules.
    """
    modules: list[ModuleInfo] = []
    seen: set[Path] = set()
    for root in roots:
        root = Path(root).resolve()
        if not root.exists():
            raise AnalysisError(f"analysis path does not exist: {root}")
        base = root.parent if root.is_dir() else root.parent.parent
        for path in _iter_py_files(root):
            if path in seen:
                continue
            seen.add(path)
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                raise AnalysisError(f"cannot parse {path}: {exc}") from exc
            modules.append(
                ModuleInfo(
                    path=path,
                    rel=path.relative_to(base).as_posix(),
                    tree=tree,
                    lines=source.splitlines(),
                )
            )
    return modules


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def _collect_suppressions(module: ModuleInfo) -> list[_Suppression]:
    # tokenize, not line regex: the marker must be a real comment —
    # docstrings *describing* the syntax must not count as markers.
    out: list[_Suppression] = []
    source = "\n".join(module.lines) + "\n"
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except tokenize.TokenError:
        return out  # load_modules already guarantees it parses
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        out.append(
            _Suppression(
                line=token.start[0],
                rules=rules or ("*",),
                reason=match.group(2).strip(" -—"),
            )
        )
    return out


def _apply_suppressions(
    module: ModuleInfo,
    suppressions: list[_Suppression],
    findings: list[Finding],
) -> tuple[list[Finding], int]:
    """Drop findings covered by a marker on their line or the line above."""
    by_line: dict[int, list[_Suppression]] = {}
    for sup in suppressions:
        by_line.setdefault(sup.line, []).append(sup)
    kept: list[Finding] = []
    dropped = 0
    for finding in findings:
        hit = None
        for candidate_line in (finding.line, finding.line - 1):
            for sup in by_line.get(candidate_line, ()):
                if sup.covers(finding.rule):
                    hit = sup
                    break
            if hit is not None:
                break
        if hit is None:
            kept.append(finding)
        else:
            hit.used = True
            dropped += 1
    return kept, dropped


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
RuleFn = Callable[[list[ModuleInfo], Manifest], list[Finding]]


def default_rules() -> dict[str, RuleFn]:
    """The shipped rule families, keyed by family name."""
    from repro.analysis import determinism, hygiene, locks

    return {
        "locks": locks.check,
        "determinism": determinism.check,
        "hygiene": hygiene.check,
    }


def analyze_paths(
    paths: Iterable[str | Path],
    manifest: Manifest | None = None,
    rules: Iterable[str] | None = None,
) -> Report:
    """Run the analysis over ``paths`` and return the report.

    ``rules`` filters the rule families by name (default: all three).
    """
    manifest = DEFAULT_MANIFEST if manifest is None else manifest
    modules = load_modules(paths)
    available = default_rules()
    if rules is not None:
        unknown = set(rules) - set(available)
        if unknown:
            raise AnalysisError(
                f"unknown rule families {sorted(unknown)}; "
                f"available: {sorted(available)}"
            )
        available = {name: available[name] for name in rules}

    raw: list[Finding] = []
    for rule_fn in available.values():
        raw.extend(rule_fn(modules, manifest))

    report = Report(files=len(modules))
    by_module = {module.rel: module for module in modules}
    grouped: dict[str, list[Finding]] = {}
    for finding in raw:
        grouped.setdefault(finding.path, []).append(finding)

    kept: list[Finding] = []
    all_suppressions: list[tuple[ModuleInfo, _Suppression]] = []
    for rel, module in by_module.items():
        suppressions = _collect_suppressions(module)
        module_findings, dropped = _apply_suppressions(
            module, suppressions, grouped.get(rel, [])
        )
        kept.extend(module_findings)
        report.suppressed += dropped
        all_suppressions.extend((module, sup) for sup in suppressions)
    # findings in paths without a loaded module (shouldn't happen, but a
    # rule bug must surface, not vanish)
    for rel, module_findings in grouped.items():
        if rel not in by_module:
            kept.extend(module_findings)

    # suppression hygiene: every marker needs a reason and a customer
    for module, sup in all_suppressions:
        if not sup.reason:
            kept.append(
                Finding(
                    rule="sup-missing-reason",
                    path=module.rel,
                    line=sup.line,
                    message=(
                        "suppression needs a reason: "
                        "# repro: ignore[rule] why it is safe"
                    ),
                    severity=ERROR,
                )
            )
        if not sup.used:
            kept.append(
                Finding(
                    rule="sup-unused",
                    path=module.rel,
                    line=sup.line,
                    message=(
                        f"suppression for {', '.join(sup.rules)} matches "
                        "no finding; delete it"
                    ),
                    severity=WARNING,
                )
            )

    report.findings = sorted(kept, key=Finding.sort_key)
    return report
