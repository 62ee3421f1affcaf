"""``python -m repro.analysis`` — run the project rules over a tree.

Exit codes: 0 clean, 1 findings, 2 usage/configuration error (bad
paths, unparseable sources, unknown rule families).

Examples::

    python -m repro.analysis src/repro
    python -m repro.analysis src/repro --format=json
    python -m repro.analysis src/repro --rules locks,determinism
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.engine import analyze_paths, default_rules
from repro.errors import AnalysisError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-aware static analysis for the repro tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma list of rule families to run "
        f"(default: all of {','.join(sorted(default_rules()))})",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    rules = (
        [part.strip() for part in args.rules.split(",") if part.strip()]
        if args.rules
        else None
    )
    try:
        report = analyze_paths(args.paths, rules=rules)
    except AnalysisError as exc:
        print(f"repro.analysis: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        suffix = f" ({report.suppressed} suppressed)" if report.suppressed else ""
        if report.ok:
            print(f"repro.analysis: clean — {report.files} files{suffix}")
        else:
            print(
                f"repro.analysis: {len(report.findings)} findings across "
                f"{report.files} files{suffix}"
            )
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
