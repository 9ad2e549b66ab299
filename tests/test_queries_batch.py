"""Batch NEXMark queries vs the DuckDB oracle.

Every query's DataFrame implementation must agree row-for-row with its
SQL twin executed by DuckDB over the same generated input.
"""
import pytest

from repro.nexmark import generator as gen
from repro.nexmark import queries_batch as q
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def data():
    return gen.generate(rate=20_000, duration_s=1.0, n_keys=500, seed=11)


@pytest.fixture(scope="module")
def frames(spark, data):
    return gen.to_spark(spark, data)


@pytest.mark.parametrize("seed", [11, 23, 99])
def test_q1_currency_conversion(spark, seed):
    d = gen.generate(rate=5_000, duration_s=1.0, n_keys=200, seed=seed)
    bids = gen.to_spark(spark, d)["bids"]
    assert_equivalent(q.q1(bids), q.Q1_SQL, bids=d.bids)


def test_q1_preserves_cardinality(frames, data):
    assert q.q1(frames["bids"]).count() == len(data.bids)


@pytest.mark.parametrize("seed", [11, 23, 99])
def test_q2_selection(spark, seed):
    d = gen.generate(rate=5_000, duration_s=1.0, n_keys=1000, seed=seed)
    bids = gen.to_spark(spark, d)["bids"]
    assert_equivalent(q.q2(bids), q.Q2_SQL, bids=d.bids)


def test_q2_only_divisible_auctions(frames):
    rows = q.q2(frames["bids"]).select("auction").distinct().collect()
    assert rows, "generator must produce auctions divisible by Q2_MOD"
    assert all(r.auction % q.Q2_MOD == 0 for r in rows)


@pytest.mark.parametrize("size_ms,slide_ms", [(10_000, 2_000), (4_000, 1_000), (5_000, 5_000)])
def test_q5_hot_items(frames, data, size_ms, slide_ms):
    assert_equivalent(
        q.q5(frames["bids"], size_ms=size_ms, slide_ms=slide_ms),
        q.q5_sql(size_ms=size_ms, slide_ms=slide_ms),
        bids=data.bids,
    )


def test_sliding_window_explosion_count(spark):
    d = gen.generate(rate=2_000, duration_s=0.5, n_keys=100, seed=3)
    bids = gen.to_spark(spark, d)["bids"]
    exploded = q.with_sliding_windows(bids, size_ms=1_000, slide_ms=250)
    # every event falls in exactly size/slide = 4 windows
    assert exploded.count() == bids.count() * 4


@pytest.mark.parametrize("size_ms", [2_000, 10_000])
def test_q8_new_users(frames, data, size_ms):
    assert_equivalent(
        q.q8(frames["persons"], frames["auctions"], size_ms=size_ms),
        q.q8_sql(size_ms=size_ms),
        persons=data.persons,
        auctions=data.auctions,
    )


def test_q13_side_input_join(spark, frames, data):
    side_pdf = gen.side_input(128)
    side = spark.createDataFrame(side_pdf)
    assert_equivalent(
        q.q13(frames["bids"], side, side_size=128),
        q.q13_sql(side_size=128),
        bids=data.bids,
        side=side_pdf,
    )
