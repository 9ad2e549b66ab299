"""Unit tests for the engine building blocks (no Spark needed)."""
import pytest

from repro.core.dag import DAG, Edge, SourceVertex, Vertex
from repro.core.gc_model import G1_TUNED, STW_BASELINE, PauseTracker, pause_schedule
from repro.core.items import Event
from repro.core.pipeline import Pipeline
from repro.core.processors import (
    FusedProcessor,
    HashJoin,
    PaneAccumulator,
    WindowCombiner,
    WindowTop,
)
from repro.core.queues import NetworkChannel, SPSCQueue

# -- items --------------------------------------------------------------


def test_event_with_payload_keeps_ts():
    e = Event({"a": 1}, 42)
    assert e.with_payload("x") == Event("x", 42)


# -- SPSC queues --------------------------------------------------------


def test_spsc_fifo_order():
    q = SPSCQueue(8)
    for i in range(5):
        assert q.offer(i)
    assert [q.poll() for _ in range(5)] == [0, 1, 2, 3, 4]
    assert q.poll() is None


def test_spsc_capacity_backpressure():
    q = SPSCQueue(3)
    assert all(q.offer(i) for i in range(3))
    assert not q.offer(99)  # full -> producer must back off
    q.poll()
    assert q.offer(99)


# -- network channel: latency + credits (§3.3) --------------------------


def test_network_latency_delays_visibility():
    ch = NetworkChannel(latency_ms=5.0)
    ch.offer("x", now_ms=0.0)
    assert ch.poll(now_ms=1.0) is None
    assert ch.poll(now_ms=5.0) == "x"


def test_network_credits_exhaust_and_regrant():
    ch = NetworkChannel(latency_ms=0.0, initial_credits=2, ack_interval_ms=10.0)
    assert ch.offer("a", 0.0) and ch.offer("b", 0.0)
    assert not ch.offer("c", 0.0)  # out of credits
    assert ch.poll(0.0) == "a" and ch.poll(0.0) == "b"
    ch.maybe_ack(20.0)  # consumer grants a new receive window
    assert ch.credits > 0
    assert ch.offer("c", 20.0)


def test_network_ack_respects_interval():
    ch = NetworkChannel(latency_ms=0.0, initial_credits=1, ack_interval_ms=100.0)
    ch.offer("a", 0.0)
    ch.poll(0.0)
    ch.maybe_ack(50.0)  # too early: no grant yet
    assert ch.credits == 0
    ch.maybe_ack(150.0)
    assert ch.credits > 0


# -- stateless processors & fusion --------------------------------------


def test_map_processor_drops_none():
    p = FusedProcessor([("map", lambda x: x * 2 if x < 3 else None)])
    assert p.process(Event(2, 0), 0) == [Event(4, 0)]
    assert p.process(Event(5, 0), 0) == []


def test_filter_processor():
    p = FusedProcessor([("filter", lambda x: x % 2 == 0)])
    assert p.process(Event(4, 0), 0) == [Event(4, 0)]
    assert p.process(Event(5, 0), 0) == []


def test_fused_processor_chains_in_order():
    p = FusedProcessor(
        [("map", lambda x: x + 1), ("filter", lambda x: x % 2 == 0), ("map", lambda x: x * 10)]
    )
    assert p.process(Event(1, 7), 0) == [Event(20, 7)]  # keeps the event time
    assert p.process(Event(2, 0), 0) == []


def test_pipeline_fuses_adjacent_stateless_stages():
    p = Pipeline()
    (
        p.read_stream("s")
        .map(lambda x: x, name="m1")
        .filter(lambda x: True, name="f1")
        .map(lambda x: x, name="m2")
        .write_to("out")
    )
    dag = p.compile()
    # m1+f1+m2 fused into one vertex -> vertices are {fused, out}
    assert len(dag.vertices) == 2
    assert any("m1+f1+m2" == v for v in dag.vertices)


def test_pipeline_does_not_fuse_across_stateful_stage():
    p = Pipeline()
    (
        p.read_stream("s")
        .map(lambda x: x, name="m1")
        .window_count(lambda x: x, size_ms=10, slide_ms=5, name="w")
        .write_to("out")
    )
    dag = p.compile()
    assert "m1" in dag.vertices and "w.accumulate" in dag.vertices


# -- two-stage windowing ------------------------------------------------


def test_pane_accumulator_flushes_on_watermark():
    p = PaneAccumulator(lambda x: x["k"], slide_ms=10)
    p.process(Event({"k": "a"}, 5), 0)
    p.process(Event({"k": "a"}, 9), 0)
    p.process(Event({"k": "b"}, 12), 0)
    assert p.on_watermark(9) == []  # pane [0,10) not complete yet
    out = p.on_watermark(10)
    assert len(out) == 1
    r = out[0].payload
    assert (r.key, r.pane_start, r.acc) == ("a", 0, 2)
    assert p.on_watermark(20)[0].payload.key == "b"


def test_window_combiner_emits_complete_windows_once():
    c = WindowCombiner(20, 10)
    from repro.core.processors import PaneRecord

    c.process(Event(PaneRecord("a", 0, 2), 9), 0)
    c.process(Event(PaneRecord("a", 10, 3), 19), 0)
    out = c.on_watermark(20)
    # windows ending <= 20: [-10,10) with pane 0 only, [0,20) with both
    results = {(r.payload.window_start, r.payload.value) for r in out}
    assert results == {(-10, 2), (0, 5)}
    assert c.on_watermark(25) == []  # nothing new, no re-emission


def test_window_combiner_merges_partials_from_instances():
    from repro.core.processors import PaneRecord

    c = WindowCombiner(10, 10)
    c.process(Event(PaneRecord("a", 0, 2), 9), 0)
    c.process(Event(PaneRecord("a", 0, 5), 9), 0)  # partial from another node
    out = c.on_watermark(10)
    assert out[0].payload.value == 7


def test_window_top_picks_max_with_ties():
    t = WindowTop(10)
    from repro.core.processors import WindowResult

    for key, v in (("a", 5), ("b", 7), ("c", 7)):
        t.process(Event(WindowResult(0, 10, key, v, 0.0), 9), 0)
    out = t.on_watermark(10)
    winners = {r.payload["auction"] for r in out}
    assert winners == {"b", "c"}
    assert all(r.payload["n_bids"] == 7 for r in out)


def test_window_combiner_state_roundtrip():
    from repro.core.processors import PaneRecord

    c = WindowCombiner(20, 10)
    c.process(Event(PaneRecord("a", 0, 2), 9), 0)
    snap, inst = c.save_keyed(), c.save_inst()
    c2 = WindowCombiner(20, 10)
    c2.restore_keyed(snap)
    c2.restore_inst(inst)
    out = c2.on_watermark(30)
    assert {(r.payload.window_start, r.payload.value) for r in out} == {(-10, 2), (0, 2)}


def test_hash_join_restore_of_empty_built_side_keeps_it_built():
    def join():
        return HashJoin(lambda b: b["k"], lambda p: p["k"], lambda p, b: (p, b))

    j = join()
    j.on_input_done(0)  # build side ended without a single row
    snap, inst = j.save_keyed(), j.save_inst()
    j2 = join()
    j2.restore_keyed(snap)
    j2.restore_inst(inst)
    assert j2.wanted_ordinal() is None  # probes flow; no wait on the build edge


# -- DAG validation -----------------------------------------------------


def _dummy_vertex(name):
    return Vertex(name, lambda ctx, k: FusedProcessor([]))


def test_dag_rejects_unknown_edge_endpoints():
    d = DAG()
    d.add_source(SourceVertex("s", "s"))
    d.add_vertex(_dummy_vertex("v"))
    d.add_edge(Edge("s", "v"))
    d.add_edge(Edge("v", "ghost"))
    with pytest.raises(ValueError, match="unknown vertex"):
        d.validate()


def test_dag_rejects_duplicate_names():
    d = DAG()
    d.add_vertex(_dummy_vertex("v"))
    with pytest.raises(ValueError, match="duplicate"):
        d.add_vertex(_dummy_vertex("v"))


def test_dag_rejects_vertex_without_input():
    d = DAG()
    d.add_source(SourceVertex("s", "s"))
    d.add_vertex(_dummy_vertex("v"))
    d.add_edge(Edge("s", "v"))
    d.add_vertex(_dummy_vertex("orphan"))
    with pytest.raises(ValueError, match="no input"):
        d.validate()


def test_dag_rejects_partitioned_edge_without_key():
    with pytest.raises(ValueError, match="key_fn"):
        Edge("a", "b", routing="partitioned")


def test_dag_rejects_unknown_routing():
    with pytest.raises(ValueError, match="routing"):
        Edge("a", "b", routing="shuffle")


# -- GC model -----------------------------------------------------------


def test_gc_schedule_deterministic_and_bounded():
    a = pause_schedule(10_000, G1_TUNED, seed=7)
    b = pause_schedule(10_000, G1_TUNED, seed=7)
    assert a == b
    assert all(0.2 <= d <= G1_TUNED.pause_cap_ms for _, d in a)
    assert len(a) > 3


def test_gc_stw_pauses_are_much_longer():
    g1 = pause_schedule(60_000, G1_TUNED, seed=1)
    stw = pause_schedule(60_000, STW_BASELINE, seed=1)
    assert max(d for _, d in stw) > 10 * max(d for _, d in g1)


def test_pause_tracker():
    tr = PauseTracker([(10.0, 5.0), (30.0, 2.0)])
    assert not tr.in_pause(9.0)
    assert tr.in_pause(12.0)
    assert not tr.in_pause(16.0)
    assert tr.in_pause(31.0)
    assert not tr.in_pause(100.0)
