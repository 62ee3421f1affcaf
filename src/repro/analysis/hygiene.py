"""Error-taxonomy and cache hygiene.

``hyg-bare-except``
    ``except:`` catches ``SystemExit``/``KeyboardInterrupt`` and hides
    every bug; always an error.
``hyg-broad-except``
    ``except Exception``/``BaseException`` whose handler neither
    re-raises nor accounts for the failure.  Accounting means touching
    one of the manifest's ``error_counters`` names (the ``obs.CAUGHT``
    counter): top-level dispatch loops legitimately catch everything —
    a handler bug must not kill the server — but a swallowed exception
    must at least become a metric, never silence.
``hyg-generic-raise``
    ``raise Exception(...)`` / ``RuntimeError(...)`` at an API boundary
    instead of a :mod:`repro.errors` type — callers can only catch what
    the taxonomy names.  (``NotImplementedError`` on abstract methods
    stays legal.)
``hyg-unregistered-cache``
    a module-level ``lru_cache`` function or ``*Cache`` instance that
    never registers with :mod:`repro.cache` — unregistered memos grow
    for the life of the service and dodge the between-jobs clear.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleInfo
from repro.analysis.findings import ERROR, Finding
from repro.analysis.manifest import Manifest

_GENERIC_RAISES = frozenset({"Exception", "BaseException", "RuntimeError"})
_REGISTER_FNS = frozenset({"register_cache", "register_lru"})


def _exception_names(handler_type: ast.expr | None) -> list[str]:
    if handler_type is None:
        return []
    nodes = (
        handler_type.elts
        if isinstance(handler_type, ast.Tuple)
        else [handler_type]
    )
    names = []
    for node in nodes:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def _handler_accounts(handler: ast.ExceptHandler, counters: tuple) -> bool:
    """True when the handler re-raises or feeds an error counter."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Name) and node.id in counters:
            return True
        if isinstance(node, ast.Attribute) and node.attr in counters:
            return True
    return False


def _check_excepts(
    module: ModuleInfo, manifest: Manifest, findings: list[Finding]
) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            findings.append(
                Finding(
                    rule="hyg-bare-except",
                    path=module.rel,
                    line=node.lineno,
                    message=(
                        "bare `except:` swallows SystemExit/"
                        "KeyboardInterrupt; catch a repro.errors type "
                        "(or Exception + the obs error counter)"
                    ),
                    severity=ERROR,
                )
            )
            continue
        names = _exception_names(node.type)
        broad = [n for n in names if n in ("Exception", "BaseException")]
        if broad and not _handler_accounts(node, manifest.error_counters):
            findings.append(
                Finding(
                    rule="hyg-broad-except",
                    path=module.rel,
                    line=node.lineno,
                    message=(
                        f"`except {broad[0]}` neither re-raises nor "
                        "increments an error counter "
                        f"({'/'.join(manifest.error_counters)}); narrow "
                        "it to a repro.errors type or account for the "
                        "swallow"
                    ),
                    severity=ERROR,
                )
            )


def _check_raises(module: ModuleInfo, findings: list[Finding]) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = None
        if isinstance(exc, ast.Name):
            name = exc.id
        elif isinstance(exc, ast.Attribute):
            name = exc.attr
        if name in _GENERIC_RAISES:
            findings.append(
                Finding(
                    rule="hyg-generic-raise",
                    path=module.rel,
                    line=node.lineno,
                    message=(
                        f"raise {name} at an API boundary — use a "
                        "repro.errors type so callers can catch what "
                        "the taxonomy names"
                    ),
                    severity=ERROR,
                )
            )


def _registered_names(tree: ast.Module) -> set[str]:
    """Names passed (directly or via attribute) to a register_* call."""
    out: set[str] = set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            fn_name = None
            if isinstance(func, ast.Name):
                fn_name = func.id
            elif isinstance(func, ast.Attribute):
                fn_name = func.attr
            if fn_name not in _REGISTER_FNS:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                base = arg
                while isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name):
                    out.add(base.id)
    return out


def _check_caches(module: ModuleInfo, findings: list[Finding]) -> None:
    # repro/cache.py is the registry itself
    if module.rel.endswith("repro/cache.py"):
        return
    registered = _registered_names(module.tree)
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in stmt.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                leaf = None
                if isinstance(target, ast.Name):
                    leaf = target.id
                elif isinstance(target, ast.Attribute):
                    leaf = target.attr
                if leaf in ("lru_cache", "cache") and stmt.name not in registered:
                    findings.append(
                        Finding(
                            rule="hyg-unregistered-cache",
                            path=module.rel,
                            line=stmt.lineno,
                            message=(
                                f"module-level lru_cache {stmt.name!r} is "
                                "not registered with repro.cache "
                                "(register_lru) — it grows unbounded and "
                                "dodges the between-jobs clear"
                            ),
                            symbol=stmt.name,
                            severity=ERROR,
                        )
                    )
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            value = stmt.value
            if not isinstance(target, ast.Name) or not isinstance(
                value, ast.Call
            ):
                continue
            ctor = value.func
            ctor_name = None
            if isinstance(ctor, ast.Name):
                ctor_name = ctor.id
            elif isinstance(ctor, ast.Attribute):
                ctor_name = ctor.attr
            if (
                ctor_name
                and ctor_name.endswith("Cache")
                and target.id not in registered
            ):
                findings.append(
                    Finding(
                        rule="hyg-unregistered-cache",
                        path=module.rel,
                        line=stmt.lineno,
                        message=(
                            f"module-level cache instance {target.id!r} "
                            f"({ctor_name}) is not registered with "
                            "repro.cache (register_cache)"
                        ),
                        symbol=target.id,
                        severity=ERROR,
                    )
                )


def check(modules: list[ModuleInfo], manifest: Manifest) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        _check_excepts(module, manifest, findings)
        _check_raises(module, findings)
        _check_caches(module, findings)
    return findings
