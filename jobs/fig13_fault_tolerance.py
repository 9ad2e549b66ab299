"""Figure 13: Q5 latency with exactly-once checkpoints every 1 s (§7.6).

Paper reads: latency low for ~70% of events, ~200 ms at p90, rising to
~350 ms at p99.99 — the snapshot sawtooth of aligned barriers + state
serialization + backup replication into the IMDG.
"""
from repro.core.fluid import FluidSpec, simulate
from repro.harness.report import Check, Figure, n_rows


def specs() -> list[FluidSpec]:
    ft = FluidSpec(
        query="q5", n_nodes=5, rate=1e6, size_ms=10_000, slide_ms=10,
        guarantee="exactly-once", snapshot_interval_ms=1000, duration_s=240.0,
    )
    no_ft = FluidSpec(
        query="q5", n_nodes=5, rate=1e6, size_ms=10_000, slide_ms=10, duration_s=240.0
    )
    return [ft, no_ft]


def _sim_p(row, p) -> float:
    """p70 isn't part of the sweep schema; recompute from the spec."""
    from repro.harness.sweep import _decode

    return simulate(_decode(row)).percentile(p)


def _rows(pdf) -> list[dict]:
    rows = []
    for _, r in pdf.iterrows():
        ft_on = r["guarantee"] == "exactly-once"
        rows.append(
            {
                "config": "checkpoints 1s (exactly-once)" if ft_on else "FT off",
                "p50": f"{r['p50']:.1f}",
                "p70": f"{_sim_p(r, 70):.1f}",
                "p90": f"{r['p90']:.1f}",
                "p99": f"{r['p99']:.1f}",
                "p99.99": f"{r['p99_99']:.1f}",
                "paper": "70%: low, p90 ~200, p99.99 ~350" if ft_on else "Fig 11 levels",
            }
        )
    return rows


def _p9999(pdf, ft_on: bool) -> float:
    return pdf[(pdf["guarantee"] == "exactly-once") == ft_on]["p99_99"].iloc[0]


FIGURE = Figure(
    "Fig 13 — Q5 with 1 s exactly-once checkpoints (ms)",
    specs,
    _rows,
    ["config", "p50", "p70", "p90", "p99", "p99.99", "paper"],
    (
        n_rows(2),
        Check("FT p99.99 ms (paper ~350)", lambda pdf: _p9999(pdf, True),
              lambda v: 250 < v < 450),
        Check("FT / no-FT p99.99", lambda pdf: _p9999(pdf, True) / _p9999(pdf, False),
              lambda v: v > 10),
    ),
)
