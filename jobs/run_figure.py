"""Regenerate one table of the paper's evaluation.

    python jobs/run_figure.py fig07    # fig07 .. fig14, or baselines

Sweeps the figure's ``FluidSpec``s on Spark (``harness.sweep``), turns
the result rows into display rows and prints the markdown table that
EXPERIMENTS.md records.
"""
import sys

from _common import run_main
from figures import FIGURES
from repro.harness.report import Figure
from repro.harness.sweep import sweep


def run(spark, fig: Figure):
    """Sweep ``fig``'s specs; return the result frame and its table."""
    pdf = sweep(spark, fig.specs())
    return pdf, fig.table(pdf)


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in FIGURES:
        sys.exit(f"usage: python jobs/run_figure.py {{{','.join(FIGURES)}}}")
    run_main(lambda spark: run(spark, FIGURES[sys.argv[1]]), sys.argv[1])
