"""Traced stand-in for ``python -m repro.serve``.

    python serve_launch.py SPAN_DUMP server|runner [repro.serve arguments]

Installs the benchmark's tracer, hands the remaining arguments to
``repro.serve.cli.main`` unchanged, and writes the recorded spans to
SPAN_DUMP on the way out — so the traced server and runner are the
same processes, on the same command line, as the untraced ones.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracing import Tracer, dump_spans


def main(argv: list[str]) -> int:
    dump, role = Path(argv[0]), argv[1]
    from repro.serve import cli

    tracer = Tracer().install()
    try:
        return cli.main(argv[1:])
    finally:
        tracer.uninstall()
        dump_spans(dump, tracer.export(role), proc=role)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
