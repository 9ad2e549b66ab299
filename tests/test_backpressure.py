"""Backpressure behaviour (§3.3): local bounded queues and the
credit-based network receive window, unit level and end to end; and
the wake cells through which queues tell their consumers they have
work."""
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import JetEngine, SimConfig, Worker
from repro.core.items import WM_MAX, Barrier, EndOfStream, Event, Watermark
from repro.core.processors import Processor
from repro.core.queues import ACK_INTERVAL_MS, NetworkChannel, SPSCQueue
from repro.core.source import SourceTasklet
from repro.core.tasklet import InboundChannel, OutboundEdge, Tasklet
from repro.nexmark import generator as gen
from repro.nexmark import queries_jet as qj


def test_network_in_flight_bounded_by_credits():
    ch = NetworkChannel(latency_ms=1.0, initial_credits=10)
    sent = sum(1 for i in range(100) if ch.offer(i, 0.0))
    assert sent == 10  # producer stops at the window, not at the queue


def test_network_adaptive_window_tracks_consumption_rate():
    ch = NetworkChannel(latency_ms=0.0, initial_credits=1000, ack_interval_ms=100.0,
                        window_ms=300.0)
    for i in range(1000):
        ch.offer(i, 0.0)
    for _ in range(1000):
        ch.poll(50.0)
    ch.maybe_ack(100.0)
    # consumed 1000 items in 100 ms -> ~300 ms window ≈ 3000 credits
    assert 2000 <= ch.credits <= 4000


def test_network_window_floor_allows_restart():
    ch = NetworkChannel(latency_ms=0.0, initial_credits=1, ack_interval_ms=10.0)
    ch.offer("x", 0.0)
    assert ch.credits == 0
    ch.poll(0.0)
    ch.maybe_ack(1000.0)  # essentially zero observed rate
    assert ch.credits >= 64  # floor keeps the flow restartable


def test_network_counts_traffic():
    ch = NetworkChannel(latency_ms=0.0)
    ch.offer("a", 0.0)
    ch.offer("b", 0.0)
    ch.poll(0.0)
    assert (ch.sent, ch.received) == (2, 1)
    assert len(ch) == 1


@pytest.mark.parametrize("capacity,inbox", [(4, 2), (16, 8), (1024, 256)])
def test_end_to_end_no_loss_across_queue_sizes(capacity, inbox):
    data = gen.generate(rate=2_000, duration_s=0.5, n_keys=100, seed=17)
    eng = JetEngine(
        qj.q1_pipeline().compile(),
        {"bids": qj.bid_events(data)},
        n_nodes=2,
        cfg=SimConfig(threads_per_node=2, queue_capacity=capacity, inbox_limit=inbox),
    )
    eng.run()
    assert len(eng.results()) == len(data.bids)


def test_backpressure_delays_source_under_slow_consumer():
    """A slow pipeline (high per-item cost) must throttle the source:
    emission latency (already counted by the §7.1 clock) rises, and the
    run still completes without loss."""
    data = gen.generate(rate=4_000, duration_s=0.5, n_keys=100, seed=18)
    fast = JetEngine(
        qj.q1_pipeline().compile(), {"bids": qj.bid_events(data)}, n_nodes=1,
        cfg=SimConfig(threads_per_node=1, cost_per_item_ms=0.0005),
    )
    mf = fast.run()
    slow = JetEngine(
        qj.q1_pipeline().compile(), {"bids": qj.bid_events(data)}, n_nodes=1,
        cfg=SimConfig(threads_per_node=1, cost_per_item_ms=0.05, queue_capacity=64),
    )
    ms = slow.run()
    assert len(slow.results()) == len(data.bids)
    assert sum(ms.event_latencies) > 5 * sum(mf.event_latencies)


# -- wake cells: push-side readiness -------------------------------------


class Collect(Processor):
    def process(self, ev, ordinal):
        return []


def consumer(queues, *, exactly_once=True, inbox_limit=256):
    t = Tasklet("t", Collect(), [InboundChannel(q) for q in queues], [],
                exactly_once=exactly_once, inbox_limit=inbox_limit)
    w = Worker(slice_ms=0.5)
    w.add(t)
    return t, w


def idle(cell, at):
    """The worker's test: a run at ``at`` would change nothing."""
    return at < cell.due and at - cell.ack < ACK_INTERVAL_MS


def test_local_offer_wakes_consumer():
    q = SPSCQueue(4)
    t, w = consumer([q])
    w.run_slice(0.0)  # nothing to poll: the run settles both cells
    assert idle(t.cell, 0.5) and idle(w.cell, 0.5)
    q.offer(Event("a", 0))
    assert t.cell.due == w.cell.due == -inf
    w.run_slice(0.5)
    assert idle(t.cell, 1.0) and idle(w.cell, 1.0)


def test_network_offer_lowers_due_to_delivery_time():
    ch = NetworkChannel(latency_ms=0.5)
    t, w = consumer([ch])
    w.run_slice(0.0)
    assert (t.cell.due, t.cell.ack) == (inf, 0.0)
    ch.offer("x", 10.0)
    ch.offer("y", 10.2)
    assert t.cell.due == w.cell.due == 10.5
    assert idle(t.cell, 10.4) and not ch.ready(10.4)
    assert not idle(t.cell, 10.5) and ch.ready(10.5)
    assert not idle(t.cell, 100.0)  # a credit grant is due


def test_source_with_pending_snapshot_is_not_idle():
    src = SourceTasklet("s", [(100, 100, "a")], [OutboundEdge([SPSCQueue(4)])])
    src.run(0.0)
    assert src.cell.due == 100 and idle(src.cell, 50.0)
    src.request_snapshot(1)
    assert not idle(src.cell, 50.0)
    assert src.run(50.0)[0]  # emits the barrier
    assert idle(src.cell, 50.0)


#: one step of a random channel history, ``(time step, queue, item)``:
#: an offer of the item, or a worker slice when the queue index is None
#: or past the last queue
STEPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.1, 0.5, 2.0, 60.0]),
        st.one_of(st.none(), st.integers(0, 3)),
        st.sampled_from(["ev", "ev", "wm", "barrier", "eos"]),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(kinds=st.lists(st.booleans(), min_size=1, max_size=4), steps=STEPS,
       exactly_once=st.booleans())
# the input that alone holds the low watermark ends: the low rescans
@example(kinds=[False, True], steps=[(0.1, 1, "wm"), (0.5, None, "ev"), (0.1, 0, "eos"),
                                      (0.1, None, "ev")], exactly_once=True)
def test_wake_cell_matches_per_channel_ready(kinds, steps, exactly_once):
    """Under offers and runs in any order, the cell's idle test equals
    asking every live, unaligned input whether it is ready; each such
    input's due slots equal its ``wake_up()`` and every other slot reads
    inf; and the tasklet's low watermark is the least of the live
    inputs' watermarks."""
    queues = [NetworkChannel(latency_ms=0.7) if net else SPSCQueue(8) for net in kinds]
    t, w = consumer(queues, exactly_once=exactly_once, inbox_limit=2)
    now = 0.0
    w.run_slice(now)  # a fresh cell says "run me" until the first run
    for dt, ci, kind in steps:
        now += dt
        item = {"ev": Event("e", 0), "wm": Watermark(int(now * 10)), "barrier": Barrier(1),
                "eos": EndOfStream()}[kind]
        if ci is None or ci >= len(queues):  # no such queue: a slice
            w.run_slice(now)
        elif isinstance(queues[ci], NetworkChannel):
            queues[ci].offer(item, now)
        else:
            queues[ci].offer(item)
        assert (w.cell.due, w.cell.ack) == (t.cell.due, t.cell.ack)
        live = [c for c in t.inputs
                if not c.done and (c.barrier_seen is None or not exactly_once)]
        for at in (now, now + 0.3, now + 0.7, now + 99.0, now + 150.0):
            assert idle(t.cell, at) == (not any(c.queue.ready(at) for c in live))
        for i, c in enumerate(t.inputs):
            assert (t._due[i], t._ack[i]) == (c.wake_up() if c in live else (inf, inf))
        assert t._low == min((c.wm for c in t.inputs if not c.done), default=WM_MAX)
