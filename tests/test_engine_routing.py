"""Processing/state partition alignment (§4.1) and recovery re-routing."""
import pytest

from repro.core.engine import JetEngine, SimConfig
from repro.core.processors import PaneRecord
from repro.imdg.partition import partition_id
from repro.nexmark import generator as gen
from repro.nexmark import queries_jet as qj


def mk_engine(n_nodes=3, threads_per_node=2):
    data = gen.generate(rate=1_000, duration_s=0.3, n_keys=50, seed=1)
    return JetEngine(
        qj.q5_pipeline(size_ms=500, slide_ms=250).compile(),
        {"bids": qj.bid_events(data)},
        n_nodes=n_nodes,
        cfg=SimConfig(threads_per_node=threads_per_node),
    )


@pytest.fixture
def engine():
    return mk_engine()


def routes(engine, keys) -> dict:
    """The combiner instance each key's pane partials are sent to, by
    the partitioned edge of every built ``q5.accumulate`` tasklet: all
    of them must agree, and the queue picked must feed that instance."""
    per_tasklet = []
    for (vname, _), t in engine.tasklets.items():
        if vname != "q5.accumulate":
            continue
        edge = t.out.edge
        picked = {k: edge.route(PaneRecord(k, 0, 1)) for k in keys}
        for inst in set(picked.values()):
            combiner = engine.tasklets[("q5.combine", inst)]
            assert any(c.queue is edge.queues[inst] for c in combiner.inputs)
        per_tasklet.append(picked)
    assert per_tasklet and all(r == per_tasklet[0] for r in per_tasklet)
    return per_tasklet[0]


def test_routing_targets_partition_primary(engine):
    for key, inst in routes(engine, range(40)).items():
        node_idx = inst // engine.T
        pid = partition_id(key, engine.cluster.n_partitions)
        assert engine.node_members[node_idx] == engine.cluster.table.primary(pid)


def test_routing_deterministic(engine):
    assert routes(engine, range(100)) == routes(mk_engine(), range(100))


def test_routing_single_instance_vertex_always_zero():
    assert set(routes(mk_engine(n_nodes=1, threads_per_node=1), range(50)).values()) == {0}


def test_routing_follows_table_after_failover(engine):
    before = routes(engine, range(100))
    engine.fail_node(1)
    after = routes(engine, range(100))
    # keys owned by surviving nodes keep their route (consistent
    # hashing); keys owned by the failed node move
    moved = sum(1 for k in before if before[k] != after[k])
    assert 0 < moved < 80
    for k in range(100):
        pid = partition_id(k, engine.cluster.n_partitions)
        assert engine.node_members[after[k] // engine.T] == engine.cluster.table.primary(pid)


def test_instance_layout_covers_all_cores(engine):
    locs = {engine._loc("q5.accumulate", k) for k in range(engine._n_inst("q5.accumulate"))}
    assert locs == {(n, t) for n in range(3) for t in range(2)}
    assert engine._n_inst("q5.top") == 1
    assert engine._loc("q5.top", 0) == (0, 0)


def test_source_split_partitions_all_events(engine):
    split = engine._source_split["bids"]
    assert len(split) == 6
    total = sum(len(s) for s in split)
    assert total == len(engine._source_split["bids"][0]) * 6 or total > 0
    # arrival order preserved within each instance
    for s in split:
        arr = [e[0] for e in s]
        assert arr == sorted(arr)
