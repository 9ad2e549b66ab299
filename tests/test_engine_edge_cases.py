"""Engine edge cases: crash timing, GC, network, config variants, and
fluid/exact consistency."""
from collections import Counter

import pytest

from repro.core.engine import JetEngine, SimConfig
from repro.core.fluid import FluidSpec, simulate
from repro.core.gc_model import G1_TUNED
from repro.nexmark import generator as gen
from repro.nexmark import queries_jet as qj


@pytest.fixture(scope="module")
def data():
    return gen.generate(rate=3_000, duration_s=1.2, n_keys=150, seed=91)


def multiset(dicts, cols):
    return Counter(
        tuple(round(d[c], 4) if isinstance(d[c], float) else d[c] for c in cols)
        for d in dicts
    )


def q5_engine(data, **cfg_kw):
    cfg = SimConfig(threads_per_node=2, slice_ms=0.5, **cfg_kw)
    return JetEngine(
        qj.q5_pipeline(size_ms=1_000, slide_ms=500).compile(),
        {"bids": qj.bid_events(data)},
        n_nodes=2,
        cfg=cfg,
    )


Q5_COLS = ["window_start", "auction", "n_bids"]


def test_crash_during_inflight_snapshot(data):
    clean = q5_engine(data, guarantee="exactly-once", snapshot_interval_ms=300)
    clean.run()
    crashed = q5_engine(data, guarantee="exactly-once", snapshot_interval_ms=300)
    # 305 ms in: the second snapshot has just been triggered and its
    # barriers are mid-flight — recovery must fall back to snapshot 1
    crashed.run(fail_at=[(305, 0)])
    assert multiset(crashed.results(), Q5_COLS) == multiset(clean.results(), Q5_COLS)


def test_crash_immediately_after_snapshot_completes(data):
    clean = q5_engine(data, guarantee="exactly-once", snapshot_interval_ms=250)
    clean.run()
    crashed = q5_engine(data, guarantee="exactly-once", snapshot_interval_ms=250)
    crashed.run(fail_at=[(290, 1)])
    assert multiset(crashed.results(), Q5_COLS) == multiset(clean.results(), Q5_COLS)


def test_q13_exactly_once_crash(data):
    def mk():
        t0 = int(data.bids["arrival_ms"].min())
        return JetEngine(
            qj.q13_pipeline(side_size=32).compile(),
            {"bids": qj.bid_events(data), "side": qj.side_events(32, t0)},
            n_nodes=2,
            cfg=SimConfig(
                threads_per_node=2, guarantee="exactly-once", snapshot_interval_ms=300
            ),
        )

    clean, crashed = mk(), mk()
    clean.run()
    crashed.run(fail_at=[(700, 1)])
    cols = ["auction", "bidder", "price", "ts_ms", "value"]
    assert multiset(crashed.results(), cols) == multiset(clean.results(), cols)


def test_snapshot_deferred_during_hash_join_build(data):
    """A snapshot due while a priority (build) edge is still draining
    must be deferred, not deadlock barrier alignment (regression)."""
    import duckdb

    from repro.nexmark.queries_batch import q13_sql

    t0 = int(data.bids["arrival_ms"].min())
    eng = JetEngine(
        qj.q13_pipeline(side_size=32).compile(),
        {"bids": qj.bid_events(data), "side": qj.side_events(32, t0)},
        n_nodes=2,
        cfg=SimConfig(
            threads_per_node=2, guarantee="exactly-once", snapshot_interval_ms=1
        ),
    )
    m = eng.run()
    assert m.snapshots_completed >= 1  # snapshots resume after the build
    con = duckdb.connect()
    con.register("bids", data.bids)
    con.register("side", gen.side_input(32))
    want = Counter(tuple(r) for r in con.execute(q13_sql(side_size=32)).fetchall())
    con.close()
    got = Counter(
        tuple(d[c] for c in ["auction", "bidder", "price", "ts_ms", "value"])
        for d in eng.results()
    )
    assert got == want


def test_at_least_once_q5_superset_after_crash(data):
    clean = q5_engine(data, guarantee="at-least-once", snapshot_interval_ms=300)
    clean.run()
    crashed = q5_engine(data, guarantee="at-least-once", snapshot_interval_ms=300)
    crashed.run(fail_at=[(700, 0)])
    got, want = multiset(crashed.results(), Q5_COLS), multiset(clean.results(), Q5_COLS)
    # at-least-once: per-window counts can only grow (replayed bids)
    got_windows = {(k[0], k[1]) for k in got}
    assert {(k[0], k[1]) for k in want} <= got_windows


@pytest.mark.parametrize("threads", [1, 3])
def test_engine_correct_across_thread_counts(data, threads):
    import duckdb

    from repro.nexmark.queries_batch import q5_sql

    eng = JetEngine(
        qj.q5_pipeline(size_ms=1_000, slide_ms=500).compile(),
        {"bids": qj.bid_events(data)},
        n_nodes=2,
        cfg=SimConfig(threads_per_node=threads, slice_ms=0.5),
    )
    eng.run()
    con = duckdb.connect()
    con.register("bids", data.bids)
    want = {tuple(r) for r in con.execute(q5_sql(size_ms=1_000, slide_ms=500)).fetchall()}
    con.close()
    got = {tuple(d[c] for c in Q5_COLS) for d in eng.results()}
    assert got == want


def test_engine_with_gc_pauses_still_correct_and_slower():
    # 2.5 s of input: G1 pauses (node 1 at ~502 ms job time, node 0 at
    # ~2,307 ms) land in the run, and one delays a window trigger
    d = gen.generate(rate=1_500, duration_s=2.5, n_keys=150, seed=91)
    fast = q5_engine(d)
    mf = fast.run()
    slow = q5_engine(d, gc=G1_TUNED)
    ms = slow.run()
    assert multiset(slow.results(), Q5_COLS) == multiset(fast.results(), Q5_COLS)
    lf = [x for _, x in mf.trigger_latencies]
    ls = [x for _, x in ms.trigger_latencies]
    assert len(ls) == len(lf) > 0
    assert max(ls) > max(lf)
    assert sum(ls) > sum(lf)


def test_engine_with_high_network_latency_correct(data):
    eng = q5_engine(data, net_latency_ms=5.0)
    eng.run()
    base = q5_engine(data)
    base.run()
    assert multiset(eng.results(), Q5_COLS) == multiset(base.results(), Q5_COLS)


def test_snapshot_counters(data):
    eng = q5_engine(data, guarantee="exactly-once", snapshot_interval_ms=250)
    m = eng.run()
    assert m.snapshots_completed >= 2
    assert eng.last_complete_sid is not None
    assert eng.inflight_sid is None


def test_no_snapshots_when_guarantee_none(data):
    eng = q5_engine(data, guarantee="none", snapshot_interval_ms=250)
    m = eng.run()
    assert m.snapshots_completed == 0


def test_missing_stream_data_raises(data):
    with pytest.raises(ValueError, match="no data for streams"):
        JetEngine(
            qj.q8_pipeline(size_ms=500).compile(),
            {"persons": qj.person_events(data)},  # auctions missing
            n_nodes=1,
            cfg=SimConfig(),
        )


def test_exact_engine_latency_consistent_with_fluid_floor(data):
    """At trivially low utilisation the exact engine's trigger latency
    should sit in the same low-millisecond regime the fluid model
    predicts (sub-20 ms p99-equivalent) — the two modes agree at the
    operating point where both are valid."""
    eng = q5_engine(data)
    m = eng.run()
    lats = sorted(l for _, l in m.trigger_latencies)
    exact_p50 = lats[len(lats) // 2]
    fl = simulate(
        FluidSpec(query="q5", n_nodes=2, cores_per_node=2, rate=2_500,
                  size_ms=1_000, slide_ms=500, n_keys=150, duration_s=30)
    )
    assert exact_p50 < 20
    assert fl.percentile(50) < 20
    assert max(lats) < 200


def test_network_latency_shows_up_in_trigger_latency(data):
    base = q5_engine(data)
    mb = base.run()
    slow = q5_engine(data, net_latency_ms=8.0)
    ms = slow.run()
    med = lambda xs: sorted(xs)[len(xs) // 2]  # noqa: E731
    assert med([l for _, l in ms.trigger_latencies]) > med(
        [l for _, l in mb.trigger_latencies]
    )
