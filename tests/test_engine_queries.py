"""Exact-mode engine vs DuckDB: the engine computes real query results.

Spark↔DuckDB equivalence is covered in ``test_queries_batch``; these
tests close the triangle by asserting engine↔DuckDB equality on the
same generated input, across cluster shapes and out-of-orderness.
"""
import hashlib
from collections import Counter

import duckdb
import pytest

from repro.core.engine import JetEngine, SimConfig, Worker
from repro.core.gc_model import G1_TUNED
from repro.core.processors import TumblingJoin, WindowCombiner
from repro.nexmark import generator as gen
from repro.nexmark import queries_jet as qj
from repro.nexmark.queries_batch import Q1_SQL, Q2_SQL, q5_sql, q8_sql, q13_sql


def duck(sql: str, **tables) -> set:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        rows = con.execute(sql).fetchall()
    finally:
        con.close()
    return {tuple(round(c, 4) if isinstance(c, float) else c for c in r) for r in rows}


def rows_set(dicts: list[dict], cols: list[str]) -> set:
    return {
        tuple(
            round(d[c], 4) if isinstance(d[c], float) else d[c] for c in cols
        )
        for d in dicts
    }


@pytest.fixture(scope="module")
def data():
    return gen.generate(rate=4_000, duration_s=1.0, n_keys=300, seed=77)


CFG = dict(threads_per_node=2, slice_ms=0.5)


@pytest.mark.parametrize("n_nodes", [1, 2, 3])
def test_q1_engine_matches_duckdb(data, n_nodes):
    eng = JetEngine(
        qj.q1_pipeline().compile(),
        {"bids": qj.bid_events(data)},
        n_nodes=n_nodes,
        cfg=SimConfig(**CFG),
    )
    eng.run()
    got = rows_set(eng.results(), ["auction", "bidder", "price_eur", "ts_ms"])
    want = duck(Q1_SQL, bids=data.bids)
    assert got == want


def test_q1_engine_preserves_multiplicity(data):
    eng = JetEngine(
        qj.q1_pipeline().compile(), {"bids": qj.bid_events(data)}, n_nodes=2,
        cfg=SimConfig(**CFG),
    )
    eng.run()
    assert len(eng.results()) == len(data.bids)


@pytest.mark.parametrize("n_nodes", [1, 2])
def test_q2_engine_matches_duckdb(data, n_nodes):
    eng = JetEngine(
        qj.q2_pipeline().compile(), {"bids": qj.bid_events(data)}, n_nodes=n_nodes,
        cfg=SimConfig(**CFG),
    )
    eng.run()
    got = rows_set(eng.results(), ["auction", "price"])
    assert got == duck(Q2_SQL, bids=data.bids)


@pytest.mark.parametrize("size_ms,slide_ms", [(2_000, 500), (1_000, 1_000)])
def test_q5_engine_matches_duckdb(data, size_ms, slide_ms):
    eng = JetEngine(
        qj.q5_pipeline(size_ms=size_ms, slide_ms=slide_ms).compile(),
        {"bids": qj.bid_events(data)},
        n_nodes=2,
        cfg=SimConfig(**CFG),
    )
    eng.run()
    got = rows_set(eng.results(), ["window_start", "auction", "n_bids"])
    want = duck(q5_sql(size_ms=size_ms, slide_ms=slide_ms), bids=data.bids)
    assert got == want


def test_q5_engine_at_fig7_window_geometry():
    """Fig 7's 10 s window sliding every 10 ms (1,000 panes per window),
    at a low rate and long enough that windows close before the flush."""
    d = gen.generate(rate=200, duration_s=11.0, n_keys=50, seed=7)
    eng = JetEngine(
        qj.q5_pipeline(size_ms=10_000, slide_ms=10).compile(),
        {"bids": qj.bid_events(d)},
        n_nodes=2,
        cfg=SimConfig(**CFG),
    )
    m = eng.run()
    assert m.trigger_latencies, "windows must close while the stream runs"
    got = rows_set(eng.results(), ["window_start", "auction", "n_bids"])
    assert got == duck(q5_sql(size_ms=10_000, slide_ms=10), bids=d.bids)


#: sha256 of the output rows and trigger latencies of the two Q5 runs
#: below, pinned from the engine before window state was pane-indexed:
#: a change to either the results or the simulated timing moves it
Q5_GOLDEN_SHA256 = "18721ba1ddc1a678af2f4410de084545227a045bd336eb40c37f17e1b6f19805"


def test_q5_golden_trace(data):
    runs = []
    for size_ms, slide_ms, extra, fail_at in (
        (2_000, 500, {}, None),
        (1_000, 250, dict(guarantee="exactly-once", snapshot_interval_ms=250), [(600, 1)]),
    ):
        eng = JetEngine(
            qj.q5_pipeline(size_ms=size_ms, slide_ms=slide_ms).compile(),
            {"bids": qj.bid_events(data)},
            n_nodes=2,
            cfg=SimConfig(**CFG, **extra),
        )
        m = eng.run(fail_at=fail_at)
        runs.append((sorted(sorted(r.items()) for r in eng.results()), m.trigger_latencies))
    assert m.recoveries == 1
    assert hashlib.sha256(repr(runs).encode()).hexdigest() == Q5_GOLDEN_SHA256


@pytest.fixture(scope="module")
def sparse():
    """300 ev/s for 3 s: most 0.5 ms slices have nothing to do."""
    return gen.generate(rate=300, duration_s=3.0, n_keys=50, seed=7)


def scheduler_case(case: str, data, sparse):
    """(pipeline, sources, SimConfig kwargs, fail_at, nodes) of one golden case."""
    xo = dict(guarantee="exactly-once", snapshot_interval_ms=250)
    bids = {"bids": qj.bid_events(data)}
    if case == "q8_exactly_once_crash":
        sources = {"persons": qj.person_events(data), "auctions": qj.auction_events(data)}
        return qj.q8_pipeline(size_ms=500), sources, dict(CFG, **xo), [(600, 1)], 2
    if case == "q8_exactly_once_crash_3x4_g1_gc":
        sources = {"persons": qj.person_events(data), "auctions": qj.auction_events(data)}
        cfg = dict(CFG, threads_per_node=4, gc=G1_TUNED, **xo)
        return qj.q8_pipeline(size_ms=500), sources, cfg, [(600, 1)], 3
    if case == "q13":
        t0 = int(data.bids["arrival_ms"].min())
        return qj.q13_pipeline(side_size=64), dict(bids, side=qj.side_events(64, t0)), CFG, None, 2
    if case == "q5_at_least_once_crash_tiny_queues":
        cfg = dict(CFG, guarantee="at-least-once", snapshot_interval_ms=250,
                   queue_capacity=8, inbox_limit=4)
        return qj.q5_pipeline(size_ms=1_000, slide_ms=250), bids, cfg, [(600, 1)], 2
    if case == "q1_g1_gc_fine_slices":
        return qj.q1_pipeline(), bids, dict(CFG, slice_ms=0.1, gc=G1_TUNED), None, 2
    if case == "q8_sparse":
        sources = {"persons": qj.person_events(sparse), "auctions": qj.auction_events(sparse)}
        return qj.q8_pipeline(size_ms=1_000), sources, CFG, None, 2
    assert case == "q5_sparse"
    return qj.q5_pipeline(size_ms=1_000, slide_ms=100), {"bids": qj.bid_events(sparse)}, CFG, None, 2


#: sha256 of each case's sorted results, trigger and event latencies,
#: completed snapshots, recoveries and final clock, pinned from the
#: engine that ran every tasklet in every slice: skipping idle work must
#: not move any of them. Throttling source watermarks to the window
#: frame re-pinned three: with fewer watermark runs, runs within a slice
#: start at other offsets, which moves end-of-stream flush latencies by
#: under 0.001 ms and, under at-least-once, which replayed events count
#: twice. Keeping end-of-stream flush rows out of the event latencies
#: re-pinned the same three; nothing else in their traces moved. The
#: 3 nodes × 4 threads case (fan-in 24, sleeping workers, a paused node)
#: was pinned from the engine that scanned every input of every tasklet
#: for readiness, before producers kept wake cells current
SCHEDULER_GOLDEN_SHA256 = {
    "q1_g1_gc_fine_slices": "2a297b65765d7377ad382a406aaaafd8eb0f9c746361189d47dbe4daf96bd4c8",
    "q13": "fae1baafd7d932a6c0b7ceb514ed8c020daadbda2853d8bde03c7f9c3f4ca7f5",
    "q5_at_least_once_crash_tiny_queues": "0a01eeb6953e3ffae89f558022a95c0ed48213d09909d0742f9a79ef1a5a9945",
    "q5_sparse": "38f2b949cc8e9fa1235e8fbf1c8f6bdc5d2273187a358f87ce039ef54c83a9ab",
    "q8_exactly_once_crash": "132c59cbba4e377e050cfcb46357271f56a3d912ce1d14b85a5e682dd582a9d4",
    "q8_exactly_once_crash_3x4_g1_gc": "c19e98f9b077b1772c74a74193d716eb48520aa4e859d64fa66a6a111a805388",
    "q8_sparse": "35c379651ca4efa882dbf0e5bfe1dbd70b55a85ee473e5be457d3fc37fe3c75f",
}


@pytest.mark.parametrize("case", sorted(SCHEDULER_GOLDEN_SHA256))
def test_scheduler_golden_trace(data, sparse, case):
    pipeline, sources, cfg, fail_at, n_nodes = scheduler_case(case, data, sparse)
    eng = JetEngine(pipeline.compile(), sources, n_nodes=n_nodes, cfg=SimConfig(**cfg))
    m = eng.run(fail_at=fail_at)
    trace = (
        sorted(sorted(r.items()) for r in eng.results()),
        m.trigger_latencies,
        m.event_latencies,
        m.snapshots_completed,
        m.recoveries,
        eng.now,
    )
    assert hashlib.sha256(repr(trace).encode()).hexdigest() == SCHEDULER_GOLDEN_SHA256[case]


def test_idle_steps_are_skipped(data, sparse, monkeypatch):
    """On sparse input most steps have nothing to run; the engine jumps
    over them instead of running every worker in every step."""
    calls = [0]
    run_slice = Worker.run_slice

    def counted(self, now_ms):
        calls[0] += 1
        run_slice(self, now_ms)

    monkeypatch.setattr(Worker, "run_slice", counted)
    pipeline, sources, cfg, _, n_nodes = scheduler_case("q8_sparse", data, sparse)
    eng = JetEngine(pipeline.compile(), sources, n_nodes=n_nodes, cfg=SimConfig(**cfg))
    eng.run()
    every_step = (eng.now - eng.t0) / eng.cfg.slice_ms * len(eng.workers)
    assert eng.results()
    assert calls[0] < every_step / 5


@pytest.mark.parametrize("case", ["q5_sliding", "q8_exactly_once_crash"])
def test_watermark_frame_keeps_output_and_trigger_times(data, monkeypatch, case):
    """Sources throttled to the window frame close every window on the
    same source event as unthrottled ones: here the output and the
    trigger latencies are the same, with fewer watermark calls."""
    if case == "q5_sliding":
        pipeline = qj.q5_pipeline(size_ms=1_000, slide_ms=100)
        sources, cfg, fail_at, proc = {"bids": qj.bid_events(data)}, CFG, None, WindowCombiner
    else:
        pipeline, sources, cfg, fail_at, _ = scheduler_case(case, data, None)
        proc = TumblingJoin
    calls = [0]
    on_watermark = proc.on_watermark

    def counted(self, wm):
        calls[0] += 1
        return on_watermark(self, wm)

    monkeypatch.setattr(proc, "on_watermark", counted)
    runs = []
    for frame in ("derived", 0):
        dag = pipeline.compile()
        if frame == 0:
            for sv in dag.sources.values():
                sv.wm_frame_ms = 0
        else:
            assert all(sv.wm_frame_ms > 0 for sv in dag.sources.values())
        calls[0] = 0
        eng = JetEngine(dag, sources, n_nodes=2, cfg=SimConfig(**cfg))
        m = eng.run(fail_at=fail_at)
        rows = Counter(tuple(sorted(r.items())) for r in eng.results())
        runs.append((rows, m.trigger_latencies, calls[0]))
    (rows, triggers, n_wm), (rows0, triggers0, n_wm0) = runs
    assert rows and triggers
    assert rows == rows0
    assert triggers == triggers0
    assert n_wm < n_wm0


def test_q5_engine_with_out_of_order_input():
    d = gen.generate(rate=4_000, duration_s=1.0, n_keys=200, seed=5, ooo_max_delay_ms=150)
    eng = JetEngine(
        qj.q5_pipeline(size_ms=1_000, slide_ms=250, ooo_lag_ms=150).compile(),
        {"bids": qj.bid_events(d)},
        n_nodes=2,
        cfg=SimConfig(**CFG),
    )
    eng.run()
    got = rows_set(eng.results(), ["window_start", "auction", "n_bids"])
    want = duck(q5_sql(size_ms=1_000, slide_ms=250), bids=d.bids)
    assert got == want


@pytest.mark.parametrize("n_nodes", [1, 3])
def test_q8_engine_matches_duckdb(data, n_nodes):
    eng = JetEngine(
        qj.q8_pipeline(size_ms=500).compile(),
        {"persons": qj.person_events(data), "auctions": qj.auction_events(data)},
        n_nodes=n_nodes,
        cfg=SimConfig(**CFG),
    )
    eng.run()
    got = rows_set(eng.results(), ["id", "name", "window_start"])
    want = duck(q8_sql(size_ms=500), persons=data.persons, auctions=data.auctions)
    assert got == want


def test_q13_engine_matches_duckdb(data):
    side_size = 64
    t0 = int(data.bids["arrival_ms"].min())
    eng = JetEngine(
        qj.q13_pipeline(side_size=side_size).compile(),
        {"bids": qj.bid_events(data), "side": qj.side_events(side_size, t0)},
        n_nodes=2,
        cfg=SimConfig(**CFG),
    )
    eng.run()
    got = rows_set(eng.results(), ["auction", "bidder", "price", "ts_ms", "value"])
    want = duck(
        q13_sql(side_size=side_size), bids=data.bids, side=gen.side_input(side_size)
    )
    assert got == want


def test_engine_backpressure_tiny_queues_no_loss(data):
    eng = JetEngine(
        qj.q1_pipeline().compile(),
        {"bids": qj.bid_events(data)},
        n_nodes=2,
        cfg=SimConfig(threads_per_node=2, slice_ms=0.5, queue_capacity=8, inbox_limit=4),
    )
    eng.run()
    assert len(eng.results()) == len(data.bids)


def test_engine_records_trigger_latencies(data):
    eng = JetEngine(
        qj.q5_pipeline(size_ms=1_000, slide_ms=250).compile(),
        {"bids": qj.bid_events(data)},
        n_nodes=1,
        cfg=SimConfig(**CFG),
    )
    m = eng.run()
    assert m.trigger_latencies, "window triggers must record latency samples"
    lats = [l for _, l in m.trigger_latencies]
    assert all(l >= 0 for l in lats)


def test_engine_records_event_latencies(data):
    eng = JetEngine(
        qj.q1_pipeline().compile(), {"bids": qj.bid_events(data)}, n_nodes=1,
        cfg=SimConfig(**CFG),
    )
    m = eng.run()
    assert len(m.event_latencies) == len(data.bids)
    assert all(l >= 0 for l in m.event_latencies)


@pytest.mark.parametrize("case", ["q5_exactly_once", "q8"])
def test_flush_output_stays_out_of_event_latencies(case):
    """Windows flushed at end of stream (watermark ``WM_MAX``) are output
    but not latency samples: their event time may lie after the clock.
    Every sample belongs to a row of a window the stream closed."""
    d = gen.generate(rate=3_000, duration_s=1.2, n_keys=150, seed=1)
    if case == "q8":
        pipeline, size_ms, cfg = qj.q8_pipeline(size_ms=500), 500, CFG
        sources = {"persons": qj.person_events(d), "auctions": qj.auction_events(d)}
    else:
        pipeline, size_ms = qj.q5_pipeline(size_ms=1_000, slide_ms=100), 1_000
        cfg = dict(CFG, guarantee="exactly-once", snapshot_interval_ms=20)
        sources = {"bids": qj.bid_events(d)}
    eng = JetEngine(pipeline.compile(), sources, n_nodes=2, cfg=SimConfig(**cfg))
    m = eng.run()
    closed = {end for end, _ in m.trigger_latencies}
    rows = eng.results()
    closed_rows = [r for r in rows if r["window_start"] + size_ms in closed]
    assert 0 < len(closed_rows) < len(rows), "the input must end with open windows"
    assert all(lat >= 0 for lat in m.event_latencies)
    assert len(m.event_latencies) == len(closed_rows)


def test_engine_throughput_counted(data):
    eng = JetEngine(
        qj.q2_pipeline().compile(), {"bids": qj.bid_events(data)}, n_nodes=1,
        cfg=SimConfig(**CFG),
    )
    m = eng.run()
    assert sum(v for k, v in m.items.items() if k.startswith("f")) >= len(data.bids)
