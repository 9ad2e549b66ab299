"""Backpressure behaviour (§3.3): local bounded queues and the
credit-based network receive window, unit level and end to end."""
import pytest

from repro.core.engine import JetEngine, SimConfig
from repro.core.queues import NetworkChannel
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
