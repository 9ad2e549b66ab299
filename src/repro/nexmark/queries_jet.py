"""NEXMark queries as Jet pipelines for the exact-mode engine.

Each ``qN_pipeline`` builds the same computation as its
:mod:`repro.nexmark.queries_batch` twin, as a
:class:`repro.core.pipeline.Pipeline`. ``*_events`` adapt generated
pandas frames into the engine's ``(arrival_ms, ts_ms, payload)`` source
format. Engine results are asserted equal to the Spark/DuckDB results
in ``tests/test_engine_queries.py`` — the cross-backend correctness
link of DESIGN.md §1.
"""
import math

import pandas as pd

from ..core.pipeline import Pipeline
from .generator import NexmarkData, side_input
from .queries_batch import Q2_MOD
from .schema import USD_TO_EUR


def _round2(x: float) -> float:
    """Round-half-up to 2 decimals, matching Spark/DuckDB ROUND (Python's
    built-in ``round`` is banker's rounding and disagrees on .xx5)."""
    return math.floor(x * 100 + 0.5) / 100


def _events(pdf: pd.DataFrame) -> list[tuple[int, int, dict]]:
    # the rows of ``to_dict("records")``, built from whole columns at
    # under two thirds of its cost
    cols = list(pdf.columns)
    rows = [dict(zip(cols, vals)) for vals in zip(*(pdf[c].tolist() for c in cols))]
    rows.sort(key=lambda r: (r["arrival_ms"], r["ts_ms"]))
    return [(r["arrival_ms"], r["ts_ms"], r) for r in rows]


def bid_events(data: NexmarkData) -> list[tuple[int, int, dict]]:
    """Bids as engine source events, sorted by arrival."""
    return _events(data.bids)


def person_events(data: NexmarkData) -> list[tuple[int, int, dict]]:
    return _events(data.persons)


def auction_events(data: NexmarkData) -> list[tuple[int, int, dict]]:
    return _events(data.auctions)


def side_events(side_size: int, t0_ms: int) -> list[tuple[int, int, dict]]:
    """Q13's bounded side input as an instantly-available batch stream."""
    return [
        (t0_ms, t0_ms, r) for r in side_input(side_size).to_dict("records")
    ]


def q1_pipeline(*, ooo_lag_ms: int = 0) -> Pipeline:
    """Q1: dollars→euros currency conversion (fused stateless map)."""
    p = Pipeline()
    (
        p.read_stream("bids", ooo_lag_ms=ooo_lag_ms)
        .map(
            lambda b: {
                "auction": b["auction"],
                "bidder": b["bidder"],
                "price_eur": _round2(b["price"] * USD_TO_EUR),
                "ts_ms": b["ts_ms"],
            }
        )
        .write_to("q1-sink")
    )
    return p


def q2_pipeline(*, ooo_lag_ms: int = 0) -> Pipeline:
    """Q2: selection of bids on auctions divisible by ``Q2_MOD``."""
    p = Pipeline()
    (
        p.read_stream("bids", ooo_lag_ms=ooo_lag_ms)
        .filter(lambda b: b["auction"] % Q2_MOD == 0)
        .map(lambda b: {"auction": b["auction"], "price": b["price"]})
        .write_to("q2-sink")
    )
    return p


def q5_pipeline(*, size_ms: int, slide_ms: int, ooo_lag_ms: int = 0) -> Pipeline:
    """Q5: hot items — two-stage sliding-window count + global top."""
    p = Pipeline()
    (
        p.read_stream("bids", ooo_lag_ms=ooo_lag_ms)
        .window_count(
            lambda b: b["auction"], size_ms=size_ms, slide_ms=slide_ms, top=True, name="q5"
        )
        .write_to("q5-sink")
    )
    return p


def q8_pipeline(*, size_ms: int, ooo_lag_ms: int = 0) -> Pipeline:
    """Q8: persons joined with their auctions in the same tumbling window."""
    p = Pipeline()
    persons = p.read_stream("persons", ooo_lag_ms=ooo_lag_ms)
    auctions = p.read_stream("auctions", ooo_lag_ms=ooo_lag_ms)
    (
        persons.tumbling_join(
            auctions,
            size_ms=size_ms,
            left_key=lambda pr: pr["id"],
            right_key=lambda a: a["seller"],
            emit=lambda pr, win: {
                "id": pr["id"],
                "name": pr["name"],
                "window_start": win,
            },
            name="q8",
        ).write_to("q8-sink")
    )
    return p


def q13_pipeline(*, side_size: int, ooo_lag_ms: int = 0) -> Pipeline:
    """Q13: bids enriched from a bounded side input (hybrid hash join)."""
    p = Pipeline()
    side = p.read_stream("side")
    bids = p.read_stream("bids", ooo_lag_ms=ooo_lag_ms)
    (
        bids.hash_join(
            side,
            build_key=lambda s: s["key"],
            probe_key=lambda b: b["auction"] % side_size,
            merge_fn=lambda b, s: {
                "auction": b["auction"],
                "bidder": b["bidder"],
                "price": b["price"],
                "ts_ms": b["ts_ms"],
                "value": s["value"],
            },
            name="q13",
        ).write_to("q13-sink")
    )
    return p
