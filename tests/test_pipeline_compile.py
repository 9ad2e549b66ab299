"""Pipeline→DAG compilation coverage for every NEXMark pipeline."""
from types import SimpleNamespace

import pytest

from repro.core.dag import DAG
from repro.core.pipeline import Pipeline
from repro.nexmark import queries_jet as qj


def edges_of(dag: DAG) -> set:
    return {(e.src, e.dst, e.ordinal, e.routing) for e in dag.edges}


def test_q1_compiles_to_fused_linear_chain():
    dag = qj.q1_pipeline().compile()
    assert set(dag.sources) == {"bids"}
    assert len(dag.vertices) == 2  # fused map + sink
    assert all(e.routing == "one_to_one" for e in dag.edges)


def test_q2_fuses_filter_and_map():
    dag = qj.q2_pipeline().compile()
    [fused] = [v for v in dag.vertices if "sink" not in v]
    assert "+" in fused  # filter+map fused into one vertex


@pytest.mark.parametrize(
    "pipeline,frame",
    [
        (lambda: qj.q5_pipeline(size_ms=1_000, slide_ms=100), 100),
        (lambda: qj.q8_pipeline(size_ms=500), 500),
        (lambda: qj.q5_pipeline(size_ms=10_000, slide_ms=10), 10),
        (qj.q1_pipeline, 0),
        (lambda: qj.q13_pipeline(side_size=64), 0),
    ],
    ids=["q5_1s_100ms", "q8_500ms", "q5_10s_10ms", "q1", "q13"],
)
def test_watermark_frame_is_the_window_step(pipeline, frame):
    dag = pipeline().compile()
    assert [sv.wm_frame_ms for sv in dag.sources.values()] == [frame] * len(dag.sources)


def test_watermark_frame_is_gcd_over_windowed_stages():
    p = Pipeline()
    p.read_stream("a").window_count(lambda r: r, size_ms=900, slide_ms=300).write_to("s1")
    p.read_stream("b").window_count(lambda r: r, size_ms=500, slide_ms=500).write_to("s2")
    dag = p.compile()
    assert {n: sv.wm_frame_ms for n, sv in dag.sources.items()} == {"a": 100, "b": 100}


def test_q5_compiles_two_stage_plus_top():
    dag = qj.q5_pipeline(size_ms=1_000, slide_ms=100).compile()
    assert {"q5.accumulate", "q5.combine", "q5.top", "q5-sink"} == set(dag.vertices)
    e = edges_of(dag)
    assert ("bids", "q5.accumulate", 0, "one_to_one") in e
    assert ("q5.accumulate", "q5.combine", 0, "partitioned") in e
    assert ("q5.combine", "q5.top", 0, "to_one") in e
    assert ("q5.top", "q5-sink", 0, "to_one") in e


def test_q5_without_top_stage():
    from repro.core.pipeline import Pipeline

    p = Pipeline()
    p.read_stream("bids").window_count(
        lambda b: b["auction"], size_ms=100, slide_ms=50, name="w"
    ).write_to("s")
    dag = p.compile()
    assert "w.top" not in dag.vertices
    assert ("w.combine", "s", 0, "one_to_one") in edges_of(dag)


def test_q8_compiles_two_partitioned_inputs():
    dag = qj.q8_pipeline(size_ms=1_000).compile()
    ins = dag.in_edges("q8")
    assert [e.ordinal for e in ins] == [0, 1]
    assert all(e.routing == "partitioned" for e in ins)
    assert {e.src for e in ins} == {"persons", "auctions"}


def test_q13_build_side_is_ordinal_zero():
    dag = qj.q13_pipeline(side_size=8).compile()
    ins = dag.in_edges("q13")
    assert ins[0].src == "side" and ins[0].ordinal == 0
    assert ins[1].src == "bids" and ins[1].ordinal == 1


def test_partitioned_key_fns_route_by_join_key():
    dag = qj.q8_pipeline(size_ms=1_000).compile()
    ins = dag.in_edges("q8")
    assert ins[0].key_fn({"id": 7}) == 7
    assert ins[1].key_fn({"seller": 9}) == 9


def test_sink_inherits_upstream_parallelism():
    dag5 = qj.q5_pipeline(size_ms=100, slide_ms=50).compile()
    assert dag5.vertices["q5-sink"].parallelism == "one"  # after global top
    dag1 = qj.q1_pipeline().compile()
    assert dag1.vertices["q1-sink"].parallelism == "per_core"


def test_stateful_vertices_carry_merge_fns():
    dag = qj.q5_pipeline(size_ms=100, slide_ms=50).compile()
    ctx = SimpleNamespace(record_trigger=lambda end, now: None)
    acc = dag.vertices["q5.accumulate"].make(ctx, 0)
    comb = dag.vertices["q5.combine"].make(ctx, 0)
    assert acc.merge(2, 3) == 5
    assert comb.merge(2, 3) == 5
    assert acc.record_key(("k", 100)) == "k"


def test_all_pipelines_validate():
    for dag in (
        qj.q1_pipeline().compile(),
        qj.q2_pipeline().compile(),
        qj.q5_pipeline(size_ms=100, slide_ms=50).compile(),
        qj.q8_pipeline(size_ms=100).compile(),
        qj.q13_pipeline(side_size=8).compile(),
    ):
        dag.validate()  # must not raise


def test_no_fusion_across_fanout():
    from repro.core.pipeline import Pipeline

    p = Pipeline()
    s = p.read_stream("x")
    m = s.map(lambda v: v, name="shared")
    m.map(lambda v: v, name="a").write_to("s1")
    m.map(lambda v: v, name="b").write_to("s2")
    with pytest.raises(ValueError, match="multiple outbound"):
        p.compile()  # fan-out after `shared` is rejected (single-edge rule)
