"""The findings model: what every analysis rule reports.

A :class:`Finding` is one defect at one source location.  Findings are
plain frozen dataclasses so rules stay trivially testable (construct,
compare, sort) and the CLI can render them as text or JSON without any
per-rule knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Severity levels, in increasing order of badness.  Both gate the exit
#: code; ``warning`` exists so report consumers can triage.
WARNING = "warning"
ERROR = "error"

_SEVERITIES = (WARNING, ERROR)


@dataclass(frozen=True)
class Finding:
    """One defect reported by one rule at one location.

    ``path`` is a posix-style path relative to the scan root's parent
    (``repro/obs/registry.py`` when scanning ``src/repro``), ``symbol``
    the dotted enclosing context (``RowCache.__len__``) when the
    rule knows it.
    """

    rule: str
    path: str
    line: int
    message: str
    symbol: str = ""
    severity: str = ERROR

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"severity must be one of {_SEVERITIES}, got {self.severity!r}"
            )

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule, self.symbol, self.message)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        where = f"{self.path}:{self.line}"
        sym = f" ({self.symbol})" if self.symbol else ""
        return f"{where}: {self.severity} [{self.rule}] {self.message}{sym}"
