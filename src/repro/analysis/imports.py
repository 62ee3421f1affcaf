"""Unused imports (what ruff reports as F401), without ruff.

``imp-unused``
    a module-level import whose bound name the module never reads and
    that its ``__all__`` does not list.  ``__init__.py`` files are
    skipped (their imports are the package's re-exports), and an import
    statement carrying ``# noqa: F401`` (or a bare ``# noqa``) is left
    alone, on the alias's line or the statement's first line.

A name counts as read when it appears anywhere in the module as a
:class:`ast.Name` (an attribute chain's root included) or inside a
string annotation.  Module level means the top-level statements and the
bodies of top-level ``if`` / ``try`` / ``with`` blocks: imports inside a
function are that function's business.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.engine import ModuleInfo
from repro.analysis.findings import ERROR, Finding
from repro.analysis.manifest import Manifest

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _module_level(body: list[ast.stmt]):
    """Top-level statements, descending into ``if`` / ``try`` / ``with``."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_level(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_level(handler.body)


def _bindings(node: ast.Import | ast.ImportFrom):
    """Each alias of ``node`` with the name it binds."""
    for alias in node.names:
        if alias.name == "*":
            continue
        if isinstance(node, ast.Import):
            yield alias, alias.asname or alias.name.split(".")[0]
        else:
            yield alias, alias.asname or alias.name


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, string annotations included."""
    names: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a top-level ``__all__ = [...]``."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return {
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return set()


def _noqa(module: ModuleInfo, lineno: int) -> bool:
    match = _NOQA_RE.search(module.lines[lineno - 1])
    if match is None:
        return False
    return match.group("codes") is None or "F401" in match.group("codes")


def check(modules: list[ModuleInfo], manifest: Manifest) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        if module.path.name == "__init__.py":
            continue
        read = _read_names(module.tree) | _exported(module.tree)
        for node in _module_level(module.tree.body):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias, bound in _bindings(node):
                if bound in read or any(
                    _noqa(module, line) for line in (node.lineno, alias.lineno)
                ):
                    continue
                findings.append(
                    Finding(
                        rule="imp-unused",
                        path=module.rel,
                        line=alias.lineno,
                        message=f"`{alias.name}` is imported but never used",
                        symbol=bound,
                        severity=ERROR,
                    )
                )
    return findings
