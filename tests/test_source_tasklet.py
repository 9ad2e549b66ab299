"""SourceTasklet unit tests: emission, backpressure, barriers, replay."""
from repro.core.items import Barrier, EndOfStream, Event, Watermark
from repro.core.queues import SPSCQueue
from repro.core.source import SourceTasklet
from repro.core.tasklet import WM_MAX, OutboundEdge


def mk(events, *, capacity=64, ooo_lag_ms=0, batch=256, on_snapshot=None, wm_frame_ms=0):
    q = SPSCQueue(capacity)
    src = SourceTasklet(
        "s", events, [OutboundEdge([q])], ooo_lag_ms=ooo_lag_ms, batch=batch,
        on_snapshot=on_snapshot, wm_frame_ms=wm_frame_ms,
    )
    return src, q


def drain(q):
    out = []
    while (item := q.poll()) is not None:
        out.append(item)
    return out


def test_source_emits_only_arrived_events():
    src, q = mk([(0, 0, "a"), (10, 10, "b"), (20, 20, "c")])
    src.run(now_ms=10.0)
    items = drain(q)
    assert [i.payload for i in items if isinstance(i, Event)] == ["a", "b"]
    assert not src.done


def test_source_completes_with_final_watermark_then_eos():
    src, q = mk([(0, 0, "a")])
    src.run(now_ms=100.0)
    items = drain(q)
    kinds = [type(i).__name__ for i in items]
    assert kinds == ["Event", "Watermark", "Watermark", "EndOfStream"]
    assert items[-2].value == WM_MAX
    assert src.done


def test_source_backpressure_holds_offset():
    src, q = mk([(0, 0, i) for i in range(10)], capacity=3)
    src.run(now_ms=100.0)
    assert src.offset == 3  # queue full after 3
    assert len(drain(q)) == 3
    src.run(now_ms=100.0)
    assert src.offset > 3  # resumes exactly where it stopped


def test_source_no_loss_under_backpressure():
    src, q = mk([(0, 0, i) for i in range(50)], capacity=4)
    got = []
    for _ in range(100):
        src.run(now_ms=1000.0)
        got.extend(i.payload for i in drain(q) if isinstance(i, Event))
        if src.done:
            break
    assert got == list(range(50))


def test_source_watermark_monotone_and_lagged():
    src, q = mk(
        [(0, 5, "a"), (10, 8, "b"), (20, 25, "c")], ooo_lag_ms=7, batch=1
    )
    wms = []
    for now in (0, 10, 20, 30):
        src.run(now_ms=float(now))
        wms.extend(i.value for i in drain(q) if isinstance(i, Watermark))
    finite = [w for w in wms if w < WM_MAX]
    assert finite == sorted(finite)
    # first emitted wm is arrival 10 minus lag 7 (negative wms are
    # suppressed by the initial floor)
    assert finite[0] == 3


def test_source_emits_only_frame_aligned_watermarks():
    """With a 100 ms frame a watermark goes out only when the floored
    value crosses a frame boundary, not after every batch."""
    events = [(t, t, t) for t in range(5, 400, 10)]
    src, q = mk(events, ooo_lag_ms=3, wm_frame_ms=100)
    wms = []
    for arrival, _, _ in events:
        src.run(now_ms=float(arrival))
        wms.extend(i.value for i in drain(q) if isinstance(i, Watermark))
    assert src.done
    assert wms == [0, 100, 200, 300, WM_MAX]
    unthrottled, q = mk(events, ooo_lag_ms=3)
    n_wm = 0
    for arrival, _, _ in events:
        unthrottled.run(now_ms=float(arrival))
        n_wm += sum(isinstance(i, Watermark) for i in drain(q))
    assert n_wm == len(events) + 1


def test_source_barrier_precedes_post_offset_events():
    saved = []
    src, q = mk([(0, 0, i) for i in range(6)], batch=2,
                on_snapshot=lambda sid, s: saved.append((sid, s.offset)))
    src.run(now_ms=100.0)  # emits 0,1
    src.pending_snapshot_sid = 1
    src.run(now_ms=100.0)  # barrier then 2,3
    items = drain(q)
    b_idx = next(i for i, it in enumerate(items) if isinstance(it, Barrier))
    evs_after = [it.payload for it in items[b_idx:] if isinstance(it, Event)]
    assert saved == [(1, 2)]  # offset saved before post-barrier events
    assert evs_after == [2, 3]


def test_source_restore_replays_from_offset():
    src, q = mk([(0, 0, i) for i in range(6)], batch=10)
    src.run(now_ms=100.0)
    drain(q)
    assert src.done
    src.restore_inst(2)
    assert not src.done
    src.run(now_ms=100.0)
    evs = [i.payload for i in drain(q) if isinstance(i, Event)]
    assert evs == [2, 3, 4, 5]


def test_source_empty_stream_finishes_immediately():
    src, q = mk([])
    src.run(now_ms=0.0)
    items = drain(q)
    assert isinstance(items[-1], EndOfStream)
    assert src.done
