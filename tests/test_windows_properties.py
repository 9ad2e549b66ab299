"""Property-based tests: the two-stage windowing pipeline equals a
brute-force sliding-window count, and the tumbling join a brute-force
join, on arbitrary inputs (hypothesis)."""
from itertools import accumulate

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.items import WM_MAX, Event
from repro.core.processors import (
    PaneAccumulator,
    TumblingJoin,
    WindowCombiner,
    WindowResult,
    WindowTop,
)

EVENTS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 199)),  # (key, ts)
    min_size=0,
    max_size=60,
)
GEOM = st.sampled_from([(40, 10), (40, 20), (20, 20), (60, 10)])


def brute_force(events, size, slide):
    """Reference: per (window, key) counts over epoch-aligned windows."""
    out = {}
    for key, ts in events:
        last = (ts // slide) * slide
        s = last
        while s > ts - size:
            if s >= 0 or True:  # windows may start negative
                out[(s, key)] = out.get((s, key), 0) + 1
            s -= slide
    return out


def restored(proc, fresh):
    """``fresh`` holding ``proc``'s saved state, as on recovery from a
    snapshot."""
    keyed, inst = proc.save_keyed(), proc.save_inst()
    fresh.restore_keyed(keyed)
    fresh.restore_inst(inst)
    return fresh


def run_two_stage(events, size, slide, *, n_partials=1, wm_steps=None, restore_at=None):
    """Drive stage1 instances -> one combiner; return emitted counts.

    At watermark step ``restore_at`` the combiner is saved and restored
    into a fresh instance before it sees that watermark, as on recovery
    from a snapshot."""
    accs = [PaneAccumulator(lambda p: p["k"], slide) for _ in range(n_partials)]
    comb = WindowCombiner(size, slide)
    for i, (key, ts) in enumerate(events):
        accs[i % n_partials].process(Event({"k": key}, ts), 0)
    results = {}
    for step, wm in enumerate((wm_steps or []) + [WM_MAX]):
        for acc in accs:
            for ev in acc.on_watermark(wm):
                comb.process(ev, 0)
        if step == restore_at:
            keyed, inst = comb.save_keyed(), comb.save_inst()
            comb = WindowCombiner(size, slide)
            comb.restore_keyed(keyed)
            comb.restore_inst(inst)
        for ev in comb.on_watermark(wm):
            r = ev.payload
            key = (r.window_start, r.key)
            assert key not in results, "window result emitted twice"
            results[key] = r.value
    return results


@settings(max_examples=40, deadline=None)
@given(EVENTS, GEOM)
def test_two_stage_equals_brute_force(events, geom):
    size, slide = geom
    assert run_two_stage(events, size, slide) == brute_force(events, size, slide)


@settings(max_examples=25, deadline=None)
@given(EVENTS, GEOM, st.integers(2, 4))
def test_partials_merge_equals_single_instance(events, geom, n_partials):
    size, slide = geom
    assert run_two_stage(events, size, slide, n_partials=n_partials) == brute_force(
        events, size, slide
    )


STEPS = list(range(0, 260, 30))


@settings(max_examples=100, deadline=None)
@given(EVENTS, GEOM, st.integers(0, len(STEPS)) | st.none())
@example([(1, 5), (1, 15), (2, 25), (1, 35), (1, 45)], (40, 10), 2)
def test_incremental_watermarks_equal_one_shot(events, geom, restore_at):
    size, slide = geom
    got = run_two_stage(events, size, slide, wm_steps=STEPS, restore_at=restore_at)
    assert got == brute_force(events, size, slide)


@settings(max_examples=25, deadline=None)
@given(EVENTS, st.integers(0, 60) | st.none())
def test_window_top_equals_brute_force_max(events, restore_at):
    """``restore_at``: after that many window results the top stage is
    saved and restored into a fresh instance."""
    size, slide = 40, 20
    counts = brute_force(events, size, slide)
    comb_out = run_two_stage(events, size, slide)
    top = WindowTop(size)
    for i, ((ws, key), v) in enumerate(comb_out.items()):
        if i == restore_at:
            top = restored(top, WindowTop(size))
        top.process(Event(WindowResult(ws, ws + size, key, v, 0.0), ws + size - 1), 0)
    if restore_at is not None and restore_at >= len(comb_out):
        top = restored(top, WindowTop(size))
    got = {}
    for ev in top.on_watermark(WM_MAX):
        got.setdefault(ev.payload["window_start"], set()).add(
            (ev.payload["auction"], ev.payload["n_bids"])
        )
    for ws in {w for (w, _k) in counts}:
        per_key = {k: v for (w, k), v in counts.items() if w == ws}
        best = max(per_key.values())
        want = {(k, best) for k, v in per_key.items() if v == best}
        assert got[ws] == want


JOIN_EVENTS = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 4), st.integers(0, 199)),  # (side, key, ts)
    max_size=60,
)


def run_tumbling_join(events, size, wm_steps, restore_at):
    """Drive one join instance: before each watermark, feed the events
    (in drawn order) that it would close; at step ``restore_at`` save
    and restore into a fresh instance. Returns the emitted
    ``(key, window)`` list and the window ends of the triggers fired."""
    triggers = []

    def join():
        return TumblingJoin(
            size,
            lambda p: p["k"],
            lambda p: p["k"],
            lambda left, win: (left["k"], win),
            on_trigger=lambda end, now: triggers.append(end),
        )

    j = join()
    emitted = []
    pending = list(events)
    for step, wm in enumerate(wm_steps + [WM_MAX]):
        for side, key, ts in [e for e in pending if e[2] < wm]:
            j.process(Event({"k": key}, ts), side)
        pending = [e for e in pending if e[2] >= wm]
        if step == restore_at:
            j = restored(j, join())
        emitted += [ev.payload for ev in j.on_watermark(wm)]
    return emitted, triggers


@settings(max_examples=100, deadline=None)
@given(
    JOIN_EVENTS,
    st.sampled_from([10, 20, 50]),
    st.lists(st.integers(1, 60), max_size=8).map(lambda d: list(accumulate(d))),
    st.integers(0, 8) | st.none(),
)
@example([(0, 1, 5), (1, 1, 6), (0, 2, 7), (1, 2, 8), (0, 3, 45), (1, 3, 46)], 10, [20], 0)
@example([(0, 1, 12), (1, 1, 19)], 10, [19, 30], None)  # a window's last ms
def test_tumbling_join_equals_brute_force(events, size, wm_steps, restore_at):
    emitted, triggers = run_tumbling_join(events, size, wm_steps, restore_at)
    sides = {}
    for side, key, ts in events:
        sides.setdefault((key, ts // size * size), set()).add(side)
    matches = {kw for kw, seen in sides.items() if seen == {0, 1}}
    assert len(emitted) == len(set(emitted)), "match emitted twice"
    assert set(emitted) == matches
    # a window closed by a finite watermark fires one trigger; one
    # drained by the end-of-stream flush fires none
    last_wm = max(wm_steps, default=-1)
    closed = {win + size for _key, win in matches if win + size <= last_wm}
    assert sorted(triggers) == sorted(closed)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 100), max_size=50), st.integers(1, 8))
def test_spsc_queue_preserves_order_and_capacity(items, cap):
    from repro.core.queues import SPSCQueue

    q = SPSCQueue(cap)
    accepted = [x for x in items if q.offer(x)]
    assert len(accepted) == min(len(items), cap)
    assert [q.poll() for _ in accepted] == accepted and q.poll() is None
