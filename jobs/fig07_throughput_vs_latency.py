"""Figure 7: throughput per CPU-core vs latency, Q5, 10 ms slide, 1 node.

Paper setup: single c5.4xlarge (12 cooperative threads), 10 s window
sliding every 10 ms, 10 K keys; throughput swept from ~0.5 M to 2 M
events/s per core. Paper reads: p99.99 ≈ 13 ms at 0.5 M/core rising to
≈ 98 ms at 2 M/core, with the knee above 1.75 M/core.
"""
from repro.core.fluid import FluidSpec
from repro.harness.report import Check, Figure, n_rows

#: throughput per core (ev/s) -> paper's approximate p99.99 (ms)
PAPER_P9999 = {0.5e6: 13.0, 1.0e6: 20.0, 1.5e6: 30.0, 1.75e6: 45.0, 2.0e6: 98.0}

RATES_PER_CORE = [0.25e6, 0.5e6, 1.0e6, 1.5e6, 1.75e6, 2.0e6]


def specs() -> list[FluidSpec]:
    return [
        FluidSpec(query="q5", n_nodes=1, rate=r * 12, size_ms=10_000, slide_ms=10,
                  duration_s=120.0)
        for r in RATES_PER_CORE
    ]


def _rows(pdf) -> list[dict]:
    rows = []
    for _, r in pdf.sort_values("rate").iterrows():
        per_core = r["rate"] / 12
        rows.append(
            {
                "M ev/s/core": f"{per_core / 1e6:.2f}",
                "util": f"{r['utilization']:.2f}",
                "p50": f"{r['p50']:.1f}",
                "p99": f"{r['p99']:.1f}",
                "p99.99": f"{r['p99_99']:.1f}",
                "paper p99.99": PAPER_P9999.get(per_core, "—"),
            }
        )
    return rows


def _p9999(pdf) -> list[float]:
    """p99.99 by rising rate."""
    return pdf.sort_values("rate")["p99_99"].tolist()


FIGURE = Figure(
    "Fig 7 — Q5 10 ms slide, 1 node: throughput vs latency (ms)",
    specs,
    _rows,
    ["M ev/s/core", "util", "p50", "p99", "p99.99", "paper p99.99"],
    (
        n_rows(6),
        # latencies are positive, so this also means p99.99 rises with rate
        Check("p99.99 at 2.0 / at 0.25 M ev/s/core",
              lambda pdf: _p9999(pdf)[-1] / _p9999(pdf)[0], lambda v: v > 3),
        Check("p99.99 ms at 2.0 M ev/s/core (paper ~98)", lambda pdf: _p9999(pdf)[-1],
              lambda v: v > 50),
    ),
)
