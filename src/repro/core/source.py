"""Replayable source tasklets.

A source tasklet (§3.1: sources are local to each node and connect only
to local vertices) emits pre-generated events whose *arrival time* has
been reached by the simulated clock. The paper's latency clock (§7.1)
starts at each event's predetermined occurrence time: any delay in
actually emitting it — backpressure, scheduling, snapshots — is already
latency, which falls out naturally here because a full outbound queue
leaves the offset where it is.

The source is *replayable* (§4.5): its only state is the read offset,
saved into each snapshot; recovery rewinds to the offset recorded in
the last completed snapshot and re-emits.

Watermarks are throttled to the frame of the windows downstream
(``wm_frame_ms``, the GCD of their slide steps, derived by
:meth:`Pipeline.compile`): each is floored to a multiple of the frame
and goes out only when the floored value advances, not after every
batch. Flooring is monotone, so the minimum a vertex takes over its
floored inputs is the floor of the unthrottled minimum; every window and
pane end is a multiple of the frame, so that floor passes an end on the
same source event as the raw minimum does, and windows close as before.
Only the simulated cost of the watermark runs no longer made is gone: a
trigger can fire a few microseconds earlier in its slice, and rarely a
slice apart where that shift moves a network delivery across a slice
boundary. A frame of 0 (no windowed stage) sends every advance.

The source's :class:`WakeCell` holds the arrival time of its next event,
or ``-inf`` while it has a barrier to emit or a control item to flush;
the worker does not run it before then, since the run would do nothing.
The coordinator wakes it when it arms a snapshot
(:meth:`SourceTasklet.request_snapshot`).
"""
from math import inf

from .items import WM_MAX, Barrier, EndOfStream, Event, Watermark
from .queues import WakeCell
from .tasklet import RUN_OVERHEAD_MS, OutboundEdge, OutputBuffer


class SourceTasklet:
    """Emits ``events`` — a list of ``(arrival_ms, ts_ms, payload)``
    sorted by arrival — honouring simulated time and backpressure."""

    def __init__(
        self,
        name: str,
        events: list[tuple[int, int, object]],
        outputs: list[OutboundEdge],
        *,
        ooo_lag_ms: int = 0,
        wm_frame_ms: int = 0,
        batch: int = 256,
        cost_per_item_ms: float = 0.0002,
        on_snapshot=None,
    ):
        self.name = name
        self.events = events
        assert len(outputs) == 1, "a source feeds exactly one edge"
        self.outputs = outputs
        self.ooo_lag_ms = ooo_lag_ms
        self.wm_frame_ms = wm_frame_ms
        self.batch = batch
        self.cost_per_item_ms = cost_per_item_ms
        self.on_snapshot = on_snapshot
        self.offset = 0
        self.done = False
        self.last_wm = -1
        self.pending_snapshot_sid: int | None = None
        self._finishing = False
        self._ctl = OutputBuffer(outputs[0])
        self.cell = WakeCell()

    def _broadcast(self, item) -> None:
        self._ctl.push_control(item)

    def _flush_control(self, now_ms: float) -> bool:
        return self._ctl.flush(now_ms)

    def save_keyed(self) -> dict:
        return {}

    def save_inst(self):
        return self.offset

    def restore_inst(self, state) -> None:
        self.offset = int(state or 0)
        self.done = False
        self._finishing = False
        self.last_wm = -1
        self.cell.lower(-inf)

    def request_snapshot(self, sid: int) -> None:
        """Emit barrier ``sid`` at the next run, saving the offset."""
        self.pending_snapshot_sid = sid
        self.cell.lower(-inf)

    def _set_cell(self) -> None:
        """Due at the next event's arrival, unless a barrier or control
        item waits; done: never again. Sources grant no credits."""
        if self.done:
            self.cell.due = inf
        elif (
            self.pending_snapshot_sid is None
            and not self._ctl._buf
            and self.offset < len(self.events)
        ):
            self.cell.due = self.events[self.offset][0]
        else:
            self.cell.due = -inf

    def skip_idle_runs(self, n: int) -> float:
        """The cost of one of ``n`` skipped idle runs (they change nothing)."""
        return 0.0 if self.done else RUN_OVERHEAD_MS / 4

    def run(self, now_ms: float) -> tuple[bool, float]:
        """One cooperative step: barrier first, then a batch of events,
        then a watermark update; finally EOS once drained."""
        if self.done:
            return False, 0.0
        if not self._flush_control(now_ms):
            return False, 0.0
        progress = False
        if self.pending_snapshot_sid is not None:
            sid = self.pending_snapshot_sid
            self.pending_snapshot_sid = None
            if self.on_snapshot is not None:
                self.on_snapshot(sid, self)
            self._broadcast(Barrier(sid))
            progress = True
            if not self._flush_control(now_ms):
                # barrier must reach the queues before any post-offset
                # event; retry next run, emitting nothing now
                return True, RUN_OVERHEAD_MS
        emitted = 0
        max_arrival = -1
        while self.offset < len(self.events) and emitted < self.batch:
            arrival, ts, payload = self.events[self.offset]
            if arrival > now_ms:
                break
            ev = Event(payload, ts)
            if not self.outputs[0].offer_event(ev, now_ms):
                break  # backpressure: retry same offset next run
            self.offset += 1
            emitted += 1
            max_arrival = arrival
        if emitted:
            progress = True
            wm = max_arrival - self.ooo_lag_ms
            if self.wm_frame_ms:
                wm -= wm % self.wm_frame_ms
            if wm > self.last_wm:
                self.last_wm = wm
                self._broadcast(Watermark(wm))
        if self.offset >= len(self.events) and not self._finishing:
            self._finishing = True
            self._broadcast(Watermark(WM_MAX))
            self._broadcast(EndOfStream())
            progress = True
        if self._flush_control(now_ms) and self._finishing:
            self.done = True
        self._set_cell()
        cost = RUN_OVERHEAD_MS + emitted * self.cost_per_item_ms
        return progress, cost if progress else RUN_OVERHEAD_MS / 4
