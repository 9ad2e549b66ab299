"""§7.7: multi-tenancy — 100 concurrent Q5 jobs on a single node.

Paper reads: roughly 200 ms p99.99 with 100 concurrent jobs at an
aggregate 1 M ev/s; tasklets make jobs cheap, so latency degrades
gracefully (scheduling rounds lengthen) instead of collapsing.
"""
from repro.core.fluid import FluidSpec
from repro.harness.report import Check, Figure, n_rows

JOB_COUNTS = [1, 10, 50, 100]
PAPER = {100: "~200"}


def specs() -> list[FluidSpec]:
    return [
        FluidSpec(query="q5", n_nodes=1, rate=1e6, size_ms=10_000, slide_ms=10,
                  n_jobs=j, duration_s=120.0)
        for j in JOB_COUNTS
    ]


def _rows(pdf) -> list[dict]:
    return [
        {
            "concurrent jobs": int(r["n_jobs"]),
            "p50": f"{r['p50']:.1f}",
            "p99": f"{r['p99']:.1f}",
            "p99.99": f"{r['p99_99']:.1f}",
            "paper p99.99": PAPER.get(int(r["n_jobs"]), "—"),
        }
        for _, r in pdf.sort_values("n_jobs").iterrows()
    ]


FIGURE = Figure(
    "§7.7 — multi-tenancy: N concurrent Q5 jobs, 1 node, 1M ev/s aggregate (ms)",
    specs,
    _rows,
    ["concurrent jobs", "p50", "p99", "p99.99", "paper p99.99"],
    (
        n_rows(4),
        Check("100-job p99.99 ms (paper ~200)",
              lambda pdf: pdf[pdf["n_jobs"] == 100]["p99_99"].iloc[0],
              lambda v: 120 < v < 350),
    ),
)
