"""NEXMark generator invariants (pure pandas/numpy, no Spark needed)."""
import numpy as np
import pytest

from repro.nexmark import generator as gen
from repro.nexmark import schema as S


def test_event_mix_matches_beam_proportions():
    d = gen.generate(rate=50_000, duration_s=1.0, seed=1)
    n = d.n_events
    assert n == 50_000
    assert abs(len(d.bids) / n - S.BID_PROPORTION / S.TOTAL_PROPORTION) < 0.01
    assert abs(len(d.auctions) / n - S.AUCTION_PROPORTION / S.TOTAL_PROPORTION) < 0.01
    assert abs(len(d.persons) / n - S.PERSON_PROPORTION / S.TOTAL_PROPORTION) < 0.01


def test_determinism_in_seed():
    a = gen.generate(rate=10_000, duration_s=0.5, seed=5)
    b = gen.generate(rate=10_000, duration_s=0.5, seed=5)
    for x, y in ((a.bids, b.bids), (a.persons, b.persons), (a.auctions, b.auctions)):
        assert x.equals(y)


def test_different_seeds_differ():
    a = gen.generate(rate=10_000, duration_s=0.5, seed=5)
    b = gen.generate(rate=10_000, duration_s=0.5, seed=6)
    assert not a.bids["auction"].equals(b.bids["auction"])


@pytest.mark.parametrize("rate", [1_000, 10_000, 100_000])
def test_event_times_follow_rate(rate):
    d = gen.generate(rate=rate, duration_s=1.0, seed=2)
    hi = max(
        d.bids["ts_ms"].max(), d.persons["ts_ms"].max(), d.auctions["ts_ms"].max()
    )
    assert gen.T0_MS <= hi < gen.T0_MS + 1000


@pytest.mark.parametrize("rate", [4_000.0, 333.3])
def test_float_rate_gives_integer_milliseconds(rate):
    d = gen.generate(rate=rate, duration_s=0.5, seed=2)
    for frame in (d.bids, d.persons, d.auctions):
        assert frame["ts_ms"].dtype == np.int64
        assert frame["arrival_ms"].dtype == np.int64
        assert frame["ts_ms"].is_monotonic_increasing
    if rate == int(rate):
        same = gen.generate(rate=int(rate), duration_s=0.5, seed=2)
        assert d.bids.equals(same.bids) and d.persons.equals(same.persons)


def test_float_rate_runs_through_windowed_engine():
    """Float event times made the window combiner's ``range`` raise."""
    from repro.core.engine import JetEngine, SimConfig
    from repro.nexmark import queries_jet as qj

    d = gen.generate(rate=4_000.0, duration_s=0.5, n_keys=50, seed=3)
    eng = JetEngine(
        qj.q5_pipeline(size_ms=200, slide_ms=100).compile(),
        {"bids": qj.bid_events(d)},
        n_nodes=1,
        cfg=SimConfig(threads_per_node=2),
    )
    eng.run()
    assert eng.results()


def test_key_cardinality_bounded():
    d = gen.generate(rate=100_000, duration_s=1.0, n_keys=1000, seed=3)
    assert d.bids["auction"].nunique() <= 1000
    assert d.persons["id"].nunique() <= 1000
    assert d.auctions["id"].nunique() <= 1000


def test_key_cardinality_reached_for_long_streams():
    d = gen.generate(rate=200_000, duration_s=1.0, n_keys=100, seed=3)
    assert d.bids["auction"].nunique() == 100


def test_in_order_by_default():
    d = gen.generate(rate=10_000, duration_s=1.0, seed=4)
    assert (d.bids["arrival_ms"] == d.bids["ts_ms"]).all()


def test_out_of_orderness_bounded():
    d = gen.generate(rate=10_000, duration_s=1.0, seed=4, ooo_max_delay_ms=200)
    lag = d.bids["arrival_ms"] - d.bids["ts_ms"]
    assert (lag >= 0).all() and (lag <= 200).all()
    assert lag.max() > 0


def test_auction_lifetimes_positive():
    d = gen.generate(rate=10_000, duration_s=1.0, seed=4)
    assert (d.auctions["expires_ms"] > d.auctions["ts_ms"]).all()


def test_bid_prices_positive():
    d = gen.generate(rate=10_000, duration_s=1.0, seed=4)
    assert (d.bids["price"] > 0).all()


def test_side_input_deterministic_and_keyed():
    a, b = gen.side_input(64), gen.side_input(64)
    assert a.equals(b)
    assert (a["key"].to_numpy() == np.arange(64)).all()


def test_timestamps_monotone_within_kind():
    d = gen.generate(rate=10_000, duration_s=1.0, seed=9)
    for f in (d.bids, d.persons, d.auctions):
        assert (np.diff(f["ts_ms"].to_numpy()) >= 0).all()
