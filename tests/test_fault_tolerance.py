"""Fault tolerance & processing guarantees (§4.4–§4.6).

The decisive property: with exactly-once guarantee + transactional
sink, a run with an injected node crash commits *exactly* the rows of a
failure-free run — no loss, no duplicates — because the job restores
from the last completed IMDG snapshot, replays the replayable sources
from their snapshotted offsets, and deduplicates sink re-commits.
"""
import gc
import json
import os
import subprocess
import sys
import weakref
from collections import Counter

import pytest

from repro.core.engine import JetEngine, SimConfig
from repro.imdg.cluster import DataLossError
from repro.nexmark import generator as gen
from repro.nexmark import queries_jet as qj


def multiset(dicts: list[dict], cols: list[str]) -> Counter:
    return Counter(
        tuple(round(d[c], 4) if isinstance(d[c], float) else d[c] for c in cols)
        for d in dicts
    )


def mk_engine(pipeline, sources, *, guarantee, snapshot_ms, n_nodes=2, seed=1):
    return JetEngine(
        pipeline.compile(),
        sources,
        n_nodes=n_nodes,
        cfg=SimConfig(
            threads_per_node=2,
            slice_ms=0.5,
            guarantee=guarantee,
            snapshot_interval_ms=snapshot_ms,
            seed=seed,
        ),
    )


@pytest.fixture(scope="module")
def data():
    return gen.generate(rate=3_000, duration_s=1.2, n_keys=150, seed=31)


@pytest.fixture(scope="module")
def q5_clean(data):
    """Failure-free exactly-once Q5 reference run."""
    eng = mk_engine(
        qj.q5_pipeline(size_ms=1_000, slide_ms=250),
        {"bids": qj.bid_events(data)},
        guarantee="exactly-once",
        snapshot_ms=250,
    )
    eng.run()
    return eng


Q5_COLS = ["window_start", "auction", "n_bids"]


def test_snapshots_complete_under_normal_operation(q5_clean):
    assert q5_clean.metrics.snapshots_completed >= 2
    assert q5_clean.metrics.recoveries == 0


@pytest.mark.parametrize("fail_ms,victim", [(600, 0), (600, 1), (900, 1)])
def test_exactly_once_q5_crash_equals_clean_run(data, q5_clean, fail_ms, victim):
    eng = mk_engine(
        qj.q5_pipeline(size_ms=1_000, slide_ms=250),
        {"bids": qj.bid_events(data)},
        guarantee="exactly-once",
        snapshot_ms=250,
    )
    eng.run(fail_at=[(fail_ms, victim)])
    assert eng.metrics.recoveries == 1
    assert multiset(eng.results(), Q5_COLS) == multiset(q5_clean.results(), Q5_COLS)


def test_snapshot_keeps_one_keyed_chunk_per_instance(data, q5_clean):
    """An instance saves its keyed state as one IMap entry, not one per
    state key, and recovery from those chunks commits the clean run's
    rows."""
    eng = mk_engine(
        qj.q5_pipeline(size_ms=1_000, slide_ms=250),
        {"bids": qj.bid_events(data)},
        guarantee="exactly-once",
        snapshot_ms=250,
    )
    eng.run(fail_at=[(600, 1)])
    assert eng.metrics.recoveries == 1
    prefix = f"__snap.{eng.last_complete_sid}."
    keyed = {
        name[len(prefix):]: dict(imap.entry_set())
        for name, imap in eng._imaps.items()
        if name.startswith(prefix) and name != prefix + "__inst"
    }
    assert keyed
    for vname, chunks in keyed.items():
        assert set(chunks) <= set(range(eng._n_inst(vname)))
        assert all(entries for _order, entries in chunks.values())
    assert multiset(eng.results(), Q5_COLS) == multiset(q5_clean.results(), Q5_COLS)


def test_exactly_once_q1_crash_no_loss_no_dup(data):
    clean = mk_engine(
        qj.q1_pipeline(),
        {"bids": qj.bid_events(data)},
        guarantee="exactly-once",
        snapshot_ms=200,
    )
    clean.run()
    crashed = mk_engine(
        qj.q1_pipeline(),
        {"bids": qj.bid_events(data)},
        guarantee="exactly-once",
        snapshot_ms=200,
    )
    crashed.run(fail_at=[(700, 0)])
    cols = ["auction", "bidder", "price_eur", "ts_ms"]
    assert multiset(crashed.results(), cols) == multiset(clean.results(), cols)
    assert len(crashed.results()) == len(data.bids)


def test_crash_keeps_sink_latency_samples(data):
    """Recovery rebuilds every sink; the samples the old sinks recorded
    must survive it. Each committed row had at least one sample (rows
    replayed after the crash have two)."""
    eng = mk_engine(
        qj.q1_pipeline(),
        {"bids": qj.bid_events(data)},
        guarantee="exactly-once",
        snapshot_ms=250,
    )
    m = eng.run(fail_at=[(600, 1)])
    assert m.recoveries == 1
    assert len(m.event_latencies) >= len(eng.results()) == len(data.bids)


def test_exactly_once_q8_crash_equals_clean_run(data):
    sources = {
        "persons": qj.person_events(data),
        "auctions": qj.auction_events(data),
    }
    clean = mk_engine(
        qj.q8_pipeline(size_ms=400), dict(sources), guarantee="exactly-once", snapshot_ms=250
    )
    clean.run()
    crashed = mk_engine(
        qj.q8_pipeline(size_ms=400), dict(sources), guarantee="exactly-once", snapshot_ms=250
    )
    crashed.run(fail_at=[(650, 1)])
    cols = ["id", "name", "window_start"]
    assert multiset(crashed.results(), cols) == multiset(clean.results(), cols)


def test_snapshot_maps_are_retained_only_for_the_last_snapshot(data):
    """Completing a snapshot destroys the maps of every older one, the
    partial maps of the snapshot the crash cancelled included: over
    many snapshots the grid holds one snapshot's maps, and the crashed
    run still commits the rows of the clean one."""
    runs = []
    for fail_at in (None, [(610, 1)]):
        eng = mk_engine(
            qj.q5_pipeline(size_ms=1_000, slide_ms=250),
            {"bids": qj.bid_events(data)},
            guarantee="exactly-once",
            snapshot_ms=40,
        )
        m = eng.run(fail_at=fail_at)
        snap_maps = {
            name
            for node in eng.cluster.nodes.values()
            for name in node.storage
            if name.startswith("__snap.")
        }
        runs.append((eng, m, snap_maps))
    (clean, _, _), (crashed, m, snap_maps) = runs
    assert m.recoveries == 1 and m.snapshots_completed >= 20
    assert {name.split(".")[1] for name in snap_maps} == {str(crashed.last_complete_sid)}
    assert multiset(crashed.results(), Q5_COLS) == multiset(clean.results(), Q5_COLS)


def test_crash_without_backups_raises_data_loss(data):
    """With ``backup_count=0`` the crashed member held the only replica
    of its partitions, snapshots included: recovery cannot restore the
    job and must say so, not restart from an incomplete snapshot."""
    eng = JetEngine(
        qj.q5_pipeline(size_ms=1_000, slide_ms=250).compile(),
        {"bids": qj.bid_events(data)},
        n_nodes=2,
        cfg=SimConfig(
            threads_per_node=2, guarantee="exactly-once", snapshot_interval_ms=250, backup_count=0
        ),
    )
    with pytest.raises(DataLossError):
        eng.run(fail_at=[(600, 1)])
    assert eng.metrics.snapshots_completed >= 1


def test_finished_engine_is_freed_without_cyclic_gc(data):
    """No reference cycle runs through the engine (trigger recording,
    partitioned routes, snapshot callbacks), so dropping the last
    reference frees it at once, not at the next full collection."""
    gc.disable()
    try:
        eng = mk_engine(
            qj.q5_pipeline(size_ms=1_000, slide_ms=250),
            {"bids": qj.bid_events(data)},
            guarantee="exactly-once",
            snapshot_ms=250,
        )
        m = eng.run(fail_at=[(600, 1)])
        assert m.recoveries == 1 and m.snapshots_completed and m.trigger_latencies
        ref = weakref.ref(eng)
        del eng
        assert ref() is None
    finally:
        gc.enable()


def test_crash_before_first_snapshot_cold_restart(data):
    eng = mk_engine(
        qj.q1_pipeline(),
        {"bids": qj.bid_events(data)},
        guarantee="exactly-once",
        snapshot_ms=10_000,  # first snapshot far in the future
    )
    eng.run(fail_at=[(300, 0)])
    assert eng.last_complete_sid is None or eng.metrics.snapshots_completed == 0
    assert len(eng.results()) == len(data.bids)


def test_at_least_once_crash_superset_with_duplicates_allowed(data):
    clean = mk_engine(
        qj.q1_pipeline(),
        {"bids": qj.bid_events(data)},
        guarantee="at-least-once",
        snapshot_ms=200,
    )
    clean.run()
    crashed = mk_engine(
        qj.q1_pipeline(),
        {"bids": qj.bid_events(data)},
        guarantee="at-least-once",
        snapshot_ms=200,
    )
    crashed.run(fail_at=[(700, 0)])
    cols = ["auction", "bidder", "price_eur", "ts_ms"]
    got, want = multiset(crashed.results(), cols), multiset(clean.results(), cols)
    # every clean row is present at least as often; duplicates permitted
    assert all(got[k] >= n for k, n in want.items())
    assert len(crashed.results()) >= len(data.bids)


def test_at_least_once_clean_run_is_exact(data):
    eng = mk_engine(
        qj.q2_pipeline(),
        {"bids": qj.bid_events(data)},
        guarantee="at-least-once",
        snapshot_ms=200,
    )
    eng.run()
    expect = (data.bids["auction"] % 123 == 0).sum()
    assert len(eng.results()) == expect


def test_double_crash_still_exactly_once(data):
    clean = mk_engine(
        qj.q5_pipeline(size_ms=1_000, slide_ms=500),
        {"bids": qj.bid_events(data)},
        guarantee="exactly-once",
        snapshot_ms=250,
    )
    clean.run()
    crashed = mk_engine(
        qj.q5_pipeline(size_ms=1_000, slide_ms=500),
        {"bids": qj.bid_events(data)},
        guarantee="exactly-once",
        snapshot_ms=250,
    )
    crashed.run(fail_at=[(500, 0), (900, 1)])
    assert crashed.metrics.recoveries == 2
    assert multiset(crashed.results(), Q5_COLS) == multiset(clean.results(), Q5_COLS)


#: Q5 exactly-once with a crash; prints each PaneAccumulator instance's
#: keys right after the restore, and the job's output
_RESTORE_RUN = """
import json
from repro.core.engine import JetEngine, SimConfig
from repro.imdg.cluster import DataLossError
from repro.core.processors import PaneAccumulator
from repro.nexmark import generator as gen
from repro.nexmark import queries_jet as qj

data = gen.generate(rate=3_000, duration_s=1.2, n_keys=150, seed=31)
eng = JetEngine(qj.q5_pipeline(size_ms=1_000, slide_ms=250).compile(),
                {"bids": qj.bid_events(data)}, n_nodes=2,
                cfg=SimConfig(threads_per_node=2, guarantee="exactly-once",
                              snapshot_interval_ms=250))
restored = {}

def fail_node(node_idx):
    JetEngine.fail_node(eng, node_idx)
    restored.update({
        f"{v}#{k}": sorted(map(repr, p.save_keyed()))
        for (v, k), p in eng.procs.items() if isinstance(p, PaneAccumulator)
    })

eng.fail_node = fail_node
eng.run(fail_at=[(600, 1)])
print(json.dumps({"restored": restored, "output": [repr(r) for r in eng.results()]}))
"""


def test_restored_keyed_state_routing_ignores_hash_seed():
    """Restored keyed entries go to the same instances whatever Python's
    string-hash salt, so a recovered run is deterministic."""
    root = os.path.join(os.path.dirname(__file__), "..")
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.path.join(root, "src"))
        out = subprocess.run([sys.executable, "-c", _RESTORE_RUN], env=env, cwd=root,
                             capture_output=True, text=True, check=True, timeout=300)
        runs.append(json.loads(out.stdout))
    assert sum(map(len, runs[0]["restored"].values())) > 0
    assert runs[0]["restored"] == runs[1]["restored"]
    assert runs[0]["output"] == runs[1]["output"]


def test_snapshot_state_survives_in_imdg_replicas(q5_clean):
    # the snapshot IMaps are ordinary replicated IMaps: each partition's
    # fragments must exist on exactly backup_count+1 member nodes
    sid = q5_clean.last_complete_sid
    assert sid is not None
    name = f"__snap.{sid}.__inst"
    cluster = q5_clean.cluster
    holders = 0
    for node in cluster.nodes.values():
        if any(frag for frag in node.storage.get(name, {}).values()):
            holders += 1
    assert holders >= 2


def test_exactly_once_blocks_aligned_channels():
    # direct check of the alignment rule on a 2-input tasklet
    from repro.core.items import Barrier, Event
    from repro.core.processors import Processor
    from repro.core.queues import SPSCQueue
    from repro.core.tasklet import InboundChannel, Tasklet

    class Collect(Processor):
        def __init__(self):
            self.seen = []

        def process(self, ev, ordinal):
            self.seen.append(ev.payload)
            return []

    qa, qb = SPSCQueue(16), SPSCQueue(16)
    proc = Collect()
    t = Tasklet("t", proc, [InboundChannel(qa), InboundChannel(qb, ordinal=1)], [],
                exactly_once=True)
    qa.offer(Event("a1", 0))
    qa.offer(Barrier(1))
    qa.offer(Event("a2", 0))  # post-barrier: must NOT be processed yet
    qb.offer(Event("b1", 0))
    t.run(0.0)
    t.run(0.0)
    assert "a1" in proc.seen and "b1" in proc.seen
    assert "a2" not in proc.seen  # aligned channel blocked
    qb.offer(Barrier(1))
    t.run(0.0)
    t.run(0.0)
    assert "a2" in proc.seen  # alignment complete, channel released


def test_at_least_once_does_not_block_channels():
    from repro.core.items import Barrier, Event
    from repro.core.processors import Processor
    from repro.core.queues import SPSCQueue
    from repro.core.tasklet import InboundChannel, Tasklet

    class Collect(Processor):
        def __init__(self):
            self.seen = []

        def process(self, ev, ordinal):
            self.seen.append(ev.payload)
            return []

    qa, qb = SPSCQueue(16), SPSCQueue(16)
    proc = Collect()
    t = Tasklet("t", proc, [InboundChannel(qa), InboundChannel(qb, ordinal=1)], [],
                exactly_once=False)
    qa.offer(Event("a1", 0))
    qa.offer(Barrier(1))
    qa.offer(Event("a2", 0))
    t.run(0.0)
    t.run(0.0)
    assert "a2" in proc.seen  # no alignment blocking under at-least-once
