"""Figure 8: p99 latency per NEXMark query at fixed 1 M ev/s, DOP 12→240.

Paper reads: p99.99 never exceeds 16 ms (Q5 at DOP 240); simple
queries (Q1, Q2) add almost no latency; Q5 and Q8 are the hardest.
"""
from repro.core.fluid import FluidSpec
from repro.harness.report import Check, Figure, n_rows

QUERIES = ["q1", "q2", "q5", "q8", "q13"]
NODES = [1, 5, 10, 20]

#: paper's qualitative p99 ceiling per query family (ms)
PAPER_NOTE = {"q1": "~1", "q2": "~1", "q5": "<=16 (p99.99)", "q8": "<=16 (p99.99)", "q13": "low"}


def specs() -> list[FluidSpec]:
    return [
        FluidSpec(query=q, n_nodes=n, rate=1e6, size_ms=10_000, slide_ms=10,
                  duration_s=120.0)
        for q in QUERIES
        for n in NODES
    ]


def _rows(pdf) -> list[dict]:
    """One row per query, one p99 column per cluster size."""
    rows = []
    for q in QUERIES:
        row = {"query": q.upper()}
        for _, r in pdf[pdf["query"] == q].sort_values("n_nodes").iterrows():
            row[f"DOP {int(r['n_nodes']) * 12}"] = f"{r['p99']:.1f}"
        row["paper"] = PAPER_NOTE[q]
        rows.append(row)
    return rows


FIGURE = Figure(
    "Fig 8 — p99 latency (ms), 1M ev/s fixed, scaling 12→240 cores",
    specs,
    _rows,
    ["query"] + [f"DOP {n * 12}" for n in NODES] + ["paper"],
    (
        n_rows(20),
        Check("worst p99.99 ms (paper <=16)", lambda pdf: pdf["p99_99"].max(), lambda v: v < 25),
    ),
)
