"""Structured Streaming queries vs batch/DuckDB ground truth.

Each streaming run feeds a chunked parquet directory one file per
micro-batch, watermarked on event time, with a far-future flush
sentinel so append-mode results finalize deterministically. Outputs
must equal the batch (oracle-checked) results on the real rows.
"""
import uuid

import duckdb
import pytest
from pyspark.sql import functions as F

from repro.nexmark import generator as gen
from repro.nexmark import queries_stream as qs
from repro.nexmark.queries_batch import hot_items_of, q1, q2, q5_sql, q8_sql, q13
from repro.nexmark.schema import AUCTION_SCHEMA, BID_SCHEMA, PERSON_SCHEMA
from repro.oracle import assert_equivalent
from repro.sinks.exactly_once import IdempotentParquetSink
from repro.sinks.replayable import append_chunk, with_flush_sentinel, write_chunks


def duck(sql: str, **tables) -> set:
    con = duckdb.connect()
    for name, t in tables.items():
        con.register(name, t)
    rows = con.execute(sql).fetchall()
    con.close()
    return {tuple(round(c, 4) if isinstance(c, float) else c for c in r) for r in rows}


@pytest.fixture(scope="module")
def data():
    return gen.generate(rate=3_000, duration_s=1.0, n_keys=200, seed=13)


def name():
    return "t" + uuid.uuid4().hex[:10]


def _stream_dir(tmp_path, pdf, *, sentinel_ms=None):
    d = str(tmp_path / "in")
    if sentinel_ms is not None:
        pdf = with_flush_sentinel(pdf, advance_ms=sentinel_ms)
    write_chunks(pdf, d, n_chunks=4)
    return d


def test_q1_stream_matches_batch(spark, data, tmp_path):
    d = _stream_dir(tmp_path, data.bids)
    out = qs.run_to_memory(spark, q1(qs.read_stream(spark, d, BID_SCHEMA)), name())
    assert_equivalent(
        out,
        "SELECT auction, bidder, ROUND(price*0.908, 2) AS price_eur, ts_ms FROM bids",
        bids=data.bids,
    )


def test_q2_stream_matches_batch(spark, data, tmp_path):
    d = _stream_dir(tmp_path, data.bids)
    out = qs.run_to_memory(spark, q2(qs.read_stream(spark, d, BID_SCHEMA)), name())
    assert_equivalent(
        out, "SELECT auction, price FROM bids WHERE auction % 123 = 0", bids=data.bids
    )


@pytest.mark.parametrize("size_ms,slide_ms", [(1_000, 250), (500, 500)])
def test_q5_stream_counts_match_duckdb(spark, data, tmp_path, size_ms, slide_ms):
    d = _stream_dir(tmp_path, data.bids, sentinel_ms=5 * size_ms)
    counts = qs.q5_counts_stream(
        qs.read_stream(spark, d, BID_SCHEMA),
        size_ms=size_ms,
        slide_ms=slide_ms,
        watermark_ms=0,
    )
    out = qs.run_to_memory(spark, counts, name()).filter(F.col("auction") >= 0)
    got = {tuple(r) for r in out.select("window_start", "auction", "n_bids").collect()}
    n = (size_ms + slide_ms - 1) // slide_ms
    want = duck(
        f"""
        SELECT (b.ts_ms // {slide_ms}) * {slide_ms} - i.generate_series * {slide_ms} AS window_start,
               b.auction, COUNT(*) AS n_bids
        FROM bids b CROSS JOIN generate_series(0, {n - 1}) i
        WHERE b.ts_ms >= (b.ts_ms // {slide_ms}) * {slide_ms} - i.generate_series * {slide_ms}
          AND b.ts_ms <  (b.ts_ms // {slide_ms}) * {slide_ms} - i.generate_series * {slide_ms} + {size_ms}
        GROUP BY 1, 2
        """,
        bids=data.bids,
    )
    assert got == want


def test_q5_stream_hot_items_match_batch(spark, data, tmp_path):
    size_ms, slide_ms = 1_000, 250
    d = _stream_dir(tmp_path, data.bids, sentinel_ms=5 * size_ms)
    counts = qs.q5_counts_stream(
        qs.read_stream(spark, d, BID_SCHEMA),
        size_ms=size_ms,
        slide_ms=slide_ms,
        watermark_ms=0,
    )
    out = qs.run_to_memory(spark, counts, name()).filter(F.col("auction") >= 0)
    # materialize: Spark 4's analyzer rejects self-joins over a
    # MemorySink-backed view ("conflicting references")
    out = spark.createDataFrame(out.toPandas())
    hot = hot_items_of(out)
    got = {tuple(r) for r in hot.collect()}
    assert got == duck(q5_sql(size_ms=size_ms, slide_ms=slide_ms), bids=data.bids)


def test_q5_stream_out_of_order_with_sufficient_watermark(spark, tmp_path):
    d0 = gen.generate(rate=2_000, duration_s=1.0, n_keys=100, seed=3, ooo_max_delay_ms=200)
    bids = d0.bids.sort_values(["arrival_ms", "ts_ms"], kind="stable").reset_index(drop=True)
    d = _stream_dir(tmp_path, bids, sentinel_ms=10_000)
    counts = qs.q5_counts_stream(
        qs.read_stream(spark, d, BID_SCHEMA),
        size_ms=1_000,
        slide_ms=500,
        watermark_ms=250,  # covers the 200 ms disorder

    )
    out = qs.run_to_memory(spark, counts, name()).filter(F.col("auction") >= 0)
    got = {tuple(r) for r in out.select("window_start", "auction", "n_bids").collect()}
    want = duck(
        """
        SELECT (b.ts_ms // 500) * 500 - i.generate_series * 500 AS window_start,
               b.auction, COUNT(*) AS n_bids
        FROM bids b CROSS JOIN generate_series(0, 1) i
        WHERE b.ts_ms >= (b.ts_ms // 500) * 500 - i.generate_series * 500
          AND b.ts_ms <  (b.ts_ms // 500) * 500 - i.generate_series * 500 + 1000
        GROUP BY 1, 2
        """,
        bids=d0.bids,
    )
    assert got == want


def test_watermark_drops_too_late_events(spark, tmp_path):
    """An event later than the watermark bound is excluded — the
    out-of-order contract is enforced, not just tolerated."""
    import pandas as pd

    t0 = gen.T0_MS
    early = pd.DataFrame(
        {
            "auction": [1, 1],
            "bidder": [1, 2],
            "price": [1.0, 2.0],
            "ts_ms": [t0 + 100, t0 + 5_000],  # second event drives wm far ahead
            "arrival_ms": [t0 + 100, t0 + 5_000],
        }
    )
    late = pd.DataFrame(
        {
            "auction": [1],
            "bidder": [3],
            "price": [3.0],
            "ts_ms": [t0 + 150],  # belongs to the first window, way late
            "arrival_ms": [t0 + 6_000],
        }
    )
    d = str(tmp_path / "in")
    write_chunks(early, d, n_chunks=1)
    counts = qs.q5_counts_stream(
        qs.read_stream(spark, d, BID_SCHEMA), size_ms=1_000, slide_ms=1_000, watermark_ms=100
    )
    tbl = name()
    q = (
        counts.writeStream.format("memory").queryName(tbl).outputMode("append").start()
    )
    # cycle 1: watermark advances to t0+4900 (5000 - 100)
    q.processAllAvailable()
    # cycle 2: the late row arrives after the watermark already passed
    # its window — Spark must drop it, not re-open the window
    append_chunk(late, d, idx=1)
    q.processAllAvailable()
    append_chunk(with_flush_sentinel(late, advance_ms=60_000).iloc[[-1]], d, idx=2)
    q.processAllAvailable()
    q.stop()
    out = spark.table(tbl).filter(F.col("auction") >= 0)
    first_win = {
        (r.window_start, r.n_bids)
        for r in out.collect()
        if r.window_start == (t0 + 100) // 1000 * 1000
    }
    assert first_win == {((t0 + 100) // 1000 * 1000, 1)}  # late bid dropped


def test_q8_stream_join_matches_batch(spark, data, tmp_path):
    size_ms = 1_000
    pd_dir = str(tmp_path / "p")
    au_dir = str(tmp_path / "a")
    write_chunks(with_flush_sentinel(data.persons, advance_ms=10_000), pd_dir, n_chunks=3)
    write_chunks(with_flush_sentinel(data.auctions, advance_ms=10_000), au_dir, n_chunks=3)
    joined = qs.q8_stream(
        qs.read_stream(spark, pd_dir, PERSON_SCHEMA),
        qs.read_stream(spark, au_dir, AUCTION_SCHEMA),
        size_ms=size_ms,
        watermark_ms=0,
    )
    out = qs.run_to_memory(spark, joined, name()).filter(F.col("id") >= 0)
    got = {tuple(r) for r in out.select("id", "name", "window_start").collect()}
    want = duck(q8_sql(size_ms=size_ms), persons=data.persons, auctions=data.auctions)
    assert got == want


def test_q13_stream_side_join_matches_batch(spark, data, tmp_path):
    side_size = 64
    d = _stream_dir(tmp_path, data.bids)
    side = spark.createDataFrame(gen.side_input(side_size))
    out = qs.run_to_memory(
        spark,
        q13(qs.read_stream(spark, d, BID_SCHEMA), side, side_size=side_size),
        name(),
    )
    got = {
        tuple(round(c, 4) if isinstance(c, float) else c for c in r)
        for r in out.select("auction", "bidder", "price", "ts_ms", "value").collect()
    }
    want = duck(
        f"SELECT b.auction, b.bidder, b.price, b.ts_ms, s.value FROM bids b "
        f"JOIN side s ON b.auction % {side_size} = s.key",
        bids=data.bids,
        side=gen.side_input(side_size),
    )
    assert got == want


def test_exactly_once_restart_replay_no_duplicates(spark, data, tmp_path):
    """Kill-and-restart with a checkpoint: the file source replays from
    its recorded offsets and the idempotent sink dedups — end-to-end
    exactly-once across a 'failure' (the §4.5 contract on Spark)."""
    d = str(tmp_path / "in")
    half = len(data.bids) // 2
    write_chunks(data.bids.iloc[:half], d, n_chunks=2)
    sink = IdempotentParquetSink(str(tmp_path / "out"))
    ckpt = str(tmp_path / "ckpt")

    def run():
        qs.run_foreach_batch(
            q1(qs.read_stream(spark, d, BID_SCHEMA)), sink, checkpoint_dir=ckpt
        )

    run()  # first incarnation processes the first half, then "crashes"
    append_chunk(data.bids.iloc[half:].reset_index(drop=True), d, idx=10)
    run()  # restart: resumes after the committed offset, no re-emission
    got = sink.read_committed(spark)
    assert got.count() == len(data.bids)  # no loss, no duplicates
    assert_equivalent(
        got,
        "SELECT auction, bidder, ROUND(price*0.908, 2) AS price_eur, ts_ms FROM bids",
        bids=data.bids,
    )
