"""Figure 10: max ingest throughput vs cluster size, Q5 with 500 ms slide.

Paper reads: 12 cores ingest ~23.4 M ev/s; 240 cores reach 468 M ev/s
(near-linear thanks to two-stage combiners bounding exchanged data by
the key-set size), while p99.99 latency never exceeds 17 ms.
"""
from repro.core.fluid import FluidSpec, max_throughput
from repro.harness.report import Check, Figure, n_rows

NODES = [1, 5, 10, 15, 20]

#: cores -> paper's measured ingest (M ev/s), read off Fig 10
PAPER_MEPS = {12: 23.4, 60: 117.0, 120: 234.0, 180: 350.0, 240: 468.0}


def specs() -> list[FluidSpec]:
    out = []
    for n in NODES:
        base = FluidSpec(query="q5", n_nodes=n, size_ms=10_000, slide_ms=500,
                         duration_s=120.0)
        # simulate latency *at* the max sustained rate
        out.append(
            FluidSpec(query="q5", n_nodes=n, size_ms=10_000, slide_ms=500,
                      rate=max_throughput(base), duration_s=120.0)
        )
    return out


def _rows(pdf) -> list[dict]:
    rows = []
    for _, r in pdf.sort_values("n_nodes").iterrows():
        cores = int(r["n_nodes"]) * 12
        rows.append(
            {
                "cores": cores,
                "max M ev/s": f"{r['max_throughput'] / 1e6:.0f}",
                "per-core M ev/s": f"{r['max_throughput'] / cores / 1e6:.2f}",
                "p99.99 ms @max": f"{r['p99_99']:.1f}",
                "paper M ev/s": PAPER_MEPS.get(cores, "—"),
            }
        )
    return rows


def _max_throughput(pdf) -> list[float]:
    """Max sustained ingest by growing cluster size."""
    return pdf.sort_values("n_nodes")["max_throughput"].tolist()


FIGURE = Figure(
    "Fig 10 — Q5 500 ms slide: throughput scale-out (paper p99.99 <= 17 ms)",
    specs,
    _rows,
    ["cores", "max M ev/s", "per-core M ev/s", "p99.99 ms @max", "paper M ev/s"],
    (
        n_rows(5),
        Check("240-core ev/s (paper 468M)", lambda pdf: _max_throughput(pdf)[-1],
              lambda v: 400e6 < v < 560e6),
        Check("240-core / 12-core ev/s",
              lambda pdf: _max_throughput(pdf)[-1] / _max_throughput(pdf)[0], lambda v: v > 16),
    ),
)
