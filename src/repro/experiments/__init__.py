"""Experiment harnesses: one module per paper table/figure.

Every public function returns a plain dict (JSON-serializable summary)
of what it measured and accepts a ``scale`` argument (``smoke`` /
``lite`` / ``full``).  The paper's own numbers live in
:mod:`repro.experiments.paper`, keyed as those dicts are;
``benchmarks/bench_paper.py`` runs every experiment at ``lite`` and sets
the two side by side.
"""

from repro.experiments.common import Scale, get_scale, print_table, save_results

__all__ = ["Scale", "get_scale", "save_results", "print_table"]
