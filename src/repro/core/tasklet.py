"""Tasklets: cooperative computational units wrapping processors.

A tasklet (§3.2) owns a processor's inbox/outbox and its inbound and
outbound channels. Each call to :meth:`Tasklet.run` performs a short
bounded amount of work — drain a batch from the inbound queues, invoke
the processor, route the outbox — and returns control to the worker
loop, reporting the simulated cost of the work it did. Blocking is
structurally impossible: a full outbound queue makes the tasklet *back
off* (return without progress) rather than wait.

Control items are handled here, uniformly for every processor:

* watermarks are coalesced (per-channel max, vertex-level min, §2.2);
* checkpoint barriers are aligned across input channels — blocking
  aligned channels under exactly-once, pass-through collection under
  at-least-once (§4.4);
* end-of-stream completes the processor and propagates.

Each tasklet has a :class:`WakeCell` that its input queues keep current
from the push side, and that it recomputes itself after each run. The
worker reads the cell and does not run a tasklet whose outbox is empty
and none of whose inputs could return an item or grant credits: such a
run would change nothing but the input rotation (see
:meth:`Tasklet.skip_idle_runs`).

Output ordering is strictly FIFO: data events and control items share
one ordered buffer, so a barrier can never overtake the pre-barrier
events it must follow (the correctness heart of aligned snapshots),
even when a full downstream queue forces partial flushes.
"""
from collections import deque
from math import inf

from .items import WM_MAX, Barrier, EndOfStream, Event, FlushedEvent, Watermark
from .processors import Processor
from .queues import UNREAD, NetworkChannel, WakeCell

#: Simulated cost of one run besides its items (ms); a run that finds
#: nothing to do costs a quarter of it. Shared by source tasklets.
RUN_OVERHEAD_MS = 0.0005


class InboundChannel:
    """Consumer-side view of one inbound queue (local or network).

    ``ordinal`` is the *logical* input index of the edge this queue
    belongs to — a vertex with parallelism P upstream has P channels
    sharing one ordinal.
    """

    def __init__(self, queue, *, ordinal: int = 0):
        self.queue = queue
        self.ordinal = ordinal
        self.wm = -1  # highest watermark seen on this channel
        self.done = False
        self.barrier_seen: int | None = None  # sid awaiting alignment
        #: ``ready(now_ms)``: True when :meth:`poll` at ``now_ms`` would
        #: return an item or grant credits; False means it would change
        #: nothing. The queue's own check, bound here to save a call on
        #: the hot path; ``wake_up()`` likewise.
        self.ready = queue.ready
        self.wake_up = queue.wake_up

    def poll(self, now_ms: float):
        if isinstance(self.queue, NetworkChannel):
            self.queue.maybe_ack(now_ms)
            return self.queue.poll(now_ms)
        return self.queue.poll()


class OutboundEdge:
    """Producer-side view of one outbound edge: N consumer queues plus a
    routing function ``route(payload) -> queue index`` (None = round
    robin). Control items go to every queue."""

    def __init__(self, queues: list, route=None, name: str = ""):
        self.queues = queues
        self.route = route
        self.name = name
        self._rr = 0

    def _offer(self, idx: int, item, now_ms: float) -> bool:
        q = self.queues[idx]
        return q.offer(item, now_ms) if isinstance(q, NetworkChannel) else q.offer(item)

    def offer_event(self, ev: Event, now_ms: float) -> bool:
        if self.route is None:
            idx = self._rr % len(self.queues)
        else:
            idx = self.route(ev.payload)
        ok = self._offer(idx, ev, now_ms)
        if ok and self.route is None:
            self._rr += 1
        return ok


class OutputBuffer:
    """Strictly ordered outbox shared by data and control items.

    Entries are ``("ev", Event)`` or ``("ctl", item, remaining_targets)``
    where remaining targets is the set of queue indices a broadcast has
    not reached yet. :meth:`flush` delivers in order and stops at the
    first entry it cannot fully deliver.
    """

    def __init__(self, edge: OutboundEdge | None):
        self.edge = edge
        self._buf: deque = deque()

    def push_event(self, ev: Event) -> None:
        if self.edge is not None:
            self._buf.append(("ev", ev))

    def push_events(self, evs) -> None:
        for ev in evs:
            self.push_event(ev)

    def push_control(self, item) -> None:
        if self.edge is not None:
            self._buf.append(("ctl", item, set(range(len(self.edge.queues)))))

    def flush(self, now_ms: float) -> bool:
        while self._buf:
            entry = self._buf[0]
            if entry[0] == "ev":
                if not self.edge.offer_event(entry[1], now_ms):
                    return False
                self._buf.popleft()
            else:
                _, item, targets = entry
                still = {
                    qi for qi in targets if not self.edge._offer(qi, item, now_ms)
                }
                if still:
                    self._buf[0] = ("ctl", item, still)
                    return False
                self._buf.popleft()
        return True

    def __len__(self) -> int:
        return len(self._buf)


class Tasklet:
    """One processor instance scheduled cooperatively on a worker thread."""

    def __init__(
        self,
        name: str,
        processor: Processor,
        inputs: list[InboundChannel],
        outputs: list[OutboundEdge],
        *,
        exactly_once: bool = True,
        inbox_limit: int = 256,
        cost_per_item_ms: float = 0.0005,
        on_snapshot=None,
        metrics=None,
    ):
        self.name = name
        self.processor = processor
        self.inputs = inputs
        # At most one outbound edge per vertex: our DAGs are join trees
        # (multiple inputs, single output), which keeps offer-retry exact.
        assert len(outputs) <= 1, "vertices have at most one outbound edge"
        self.out = OutputBuffer(outputs[0] if outputs else None)
        self.exactly_once = exactly_once
        self.inbox_limit = inbox_limit
        self.cost_per_item_ms = cost_per_item_ms
        self.on_snapshot = on_snapshot  # fn(sid, processor) -> None
        self.metrics = metrics
        self.done = False
        self.wm = -1
        self._rr_input = 0
        self._finishing = False
        self.cell = WakeCell()
        for c in inputs:
            c.queue.cell = self.cell

    def _maybe_advance_wm(self) -> None:
        new_wm = WM_MAX  # the min over live inputs; all done: the end
        for c in self.inputs:
            if not c.done and c.wm < new_wm:
                new_wm = c.wm
        if new_wm > self.wm:
            self.wm = new_wm
            out = self.processor.on_watermark(self.wm)
            if self.wm == WM_MAX:
                out = [FlushedEvent(ev.payload, ev.ts_ms) for ev in out]
            self.out.push_events(out)
            self.out.push_control(Watermark(self.wm))

    def _barrier_ready(self) -> int | None:
        """The snapshot id every live input has aligned on, if any."""
        sid = None
        for c in self.inputs:
            if c.done:
                continue
            if c.barrier_seen is None or (sid is not None and c.barrier_seen != sid):
                return None
            sid = c.barrier_seen
        return sid

    def _set_cell(self) -> None:
        """Recompute the wake cell from the outbox and the live,
        unaligned inputs; done: never again."""
        cell = self.cell
        if self.done:
            cell.due = cell.ack = inf
            return
        if self.out._buf or self._finishing:
            cell.due = -inf
            return
        due = ack = inf
        for c in self.inputs:
            if c.done or (c.barrier_seen is not None and self.exactly_once):
                continue
            d, a = c.wake_up()
            if d < due:
                due = d
            if a < ack:
                ack = a
        cell.due = due
        cell.ack = ack

    def skip_idle_runs(self, n: int) -> float:
        """Account for ``n`` idle runs the scheduler skipped; returns
        the simulated cost of one. An idle run would poll nothing and
        change nothing but the input rotation."""
        if self.done:
            return 0.0
        self._rr_input += n
        return RUN_OVERHEAD_MS / 4

    def _take_snapshot(self, sid: int) -> None:
        if self.on_snapshot is not None:
            self.on_snapshot(sid, self.processor)
        for c in self.inputs:
            c.barrier_seen = None
            if not c.done:
                c.queue.cell = self.cell
        self.out.push_control(Barrier(sid))

    # -- main step ------------------------------------------------------

    def run(self, now_ms: float) -> tuple[bool, float]:
        """One cooperative execution step.

        Returns ``(made_progress, simulated_cost_ms)``. The tasklet
        voluntarily bounds its work to ``inbox_limit`` items so a step
        stays well under the ~1 ms quantum of §3.2.
        """
        if self.done:
            return False, 0.0
        self.processor.now_ms = now_ms  # simulated clock for trigger stamps
        progress = False
        # 1. drain any backed-up output first; no new input while blocked
        if not self.out.flush(now_ms):
            return False, RUN_OVERHEAD_MS / 4

        # 2. drain inputs into the inbox
        inbox: list[tuple[int, Event]] = []
        want = self.processor.wanted_ordinal()
        n_in = len(self.inputs)
        first = self._rr_input % n_in if n_in else 0
        order = [*range(first, n_in), *range(first)]
        if want is not None and any(
            c.ordinal == want and not c.done for c in self.inputs
        ):
            order = [ci for ci in order if self.inputs[ci].ordinal == want]
        self._rr_input += 1
        for ci in order:
            ch = self.inputs[ci]
            if ch.done:
                continue
            if ch.barrier_seen is not None and self.exactly_once:
                continue  # aligned channel is blocked until all arrive
            if not ch.ready(now_ms):
                continue
            while len(inbox) < self.inbox_limit:
                item = ch.poll(now_ms)
                if item is None:
                    break
                if isinstance(item, Event):
                    inbox.append((ch.ordinal, item))
                elif isinstance(item, Watermark):
                    ch.wm = max(ch.wm, item.value)
                    break  # handle wm at a batch boundary
                elif isinstance(item, Barrier):
                    ch.barrier_seen = item.snapshot_id
                    if self.exactly_once:
                        ch.queue.cell = UNREAD  # blocked until aligned
                    break
                elif isinstance(item, EndOfStream):
                    ch.done = True
                    ch.queue.cell = UNREAD
                    if all(c.done for c in self.inputs if c.ordinal == ch.ordinal):
                        self.processor.on_input_done(ch.ordinal)
                    break

        # 3. process data
        if inbox:
            progress = True
            for ordinal, ev in inbox:
                self.out.push_events(self.processor.process(ev, ordinal))

        # 4. control transitions
        before_wm = self.wm
        self._maybe_advance_wm()
        sid = self._barrier_ready()
        if sid is not None:
            self._take_snapshot(sid)
            progress = True
        if not self._finishing and all(c.done for c in self.inputs) and self.inputs:
            self.out.push_events(self.processor.complete())
            self.out.push_control(EndOfStream())
            self._finishing = True
            progress = True
        if self.wm > before_wm:
            progress = True

        flushed = self.out.flush(now_ms)
        if self._finishing and flushed:
            self.done = True
        self._set_cell()
        cost = RUN_OVERHEAD_MS + len(inbox) * self.cost_per_item_ms
        if self.metrics is not None and inbox:
            self.metrics.add_items(self.name, len(inbox))
        return progress or not flushed, cost if (progress or inbox) else RUN_OVERHEAD_MS / 4
