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

Each tasklet keeps one due slot per input, ``_due[i]`` and ``_ack[i]``:
while input ``i`` is live and not blocked on alignment they equal its
queue's ``wake_up()``, else both read ``inf``. The queue writes its slot
on ``offer`` and the tasklet rewrites it after draining the input, so a
run tests the slots instead of asking each queue, and drains only the
inputs that could return an item or grant credits. The tasklet's
:class:`WakeCell`, which the queues lower from the push side, is the
minimum of the slots after each run. The worker reads the cell and does
not run a tasklet whose outbox is empty and none of whose inputs could
return an item or grant credits: such a run would change nothing but
the input rotation (see :meth:`Tasklet.skip_idle_runs`).

The vertex watermark is the minimum over live inputs. The tasklet keeps
it with the number of live inputs that hold it, and rescans the inputs
only when the last of them advances or ends; barrier alignment and
completion are checked only in a run that polled a control item.

Output ordering is strictly FIFO: data events and control items share
one ordered buffer, so a barrier can never overtake the pre-barrier
events it must follow (the correctness heart of aligned snapshots),
even when a full downstream queue forces partial flushes.
"""
from collections import deque
from itertools import chain
from math import inf

from .items import WM_MAX, Barrier, EndOfStream, Event, FlushedEvent, Watermark
from .processors import Processor
from .queues import ACK_INTERVAL_MS, WakeCell

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
        #: ``poll(now_ms)`` and ``wake_up()``: the queue's own, bound
        #: once to save a call on the hot path
        self.poll = queue.poll
        self.wake_up = queue.wake_up


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
        return self.queues[idx].offer(item, now_ms)

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
        n_in = len(inputs)
        self._due = [inf] * n_in
        self._ack = [inf] * n_in
        for ci in range(n_in):
            self._attach(ci)
        self.cell.ack = min(self._ack, default=inf)
        self._ack_moved = False  # an ack slot changed since cell.ack was set
        #: the lowest watermark of a live input (all done: the end), and
        #: how many live inputs hold it
        self._low = -1 if inputs else WM_MAX
        self._low_n = n_in

    def _attach(self, ci: int) -> None:
        """Read input ``ci`` again: its queue keeps the slot current."""
        ch = self.inputs[ci]
        ch.queue.attach(self.cell, self._due, ci)
        self._due[ci], self._ack[ci] = ch.wake_up()
        self._ack_moved = True

    def _detach(self, ci: int) -> None:
        """Stop reading input ``ci`` (done, or blocked on alignment)."""
        self.inputs[ci].queue.detach()
        self._due[ci] = self._ack[ci] = inf
        self._ack_moved = True

    def _leave_low(self, wm: int) -> None:
        """An input no longer holds watermark ``wm`` as a live input: it
        advanced or ended. Rescan when it was the last at the low."""
        if wm == self._low:
            self._low_n -= 1
            if not self._low_n:
                live = [c.wm for c in self.inputs if not c.done]
                self._low = min(live, default=WM_MAX)
                self._low_n = live.count(self._low)

    def _advance_wm(self) -> None:
        """Move the vertex watermark up to the low of the live inputs."""
        self.wm = self._low
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
        """Recompute the wake cell from the outbox and the due slots of
        the live, unaligned inputs; done: never again. ``ack`` is always
        the least ack slot, which only the tasklet's own runs change."""
        cell = self.cell
        if self._ack_moved:
            cell.ack = min(self._ack, default=inf)
            self._ack_moved = False
        if self.done:
            cell.due = inf
        elif self.out._buf or self._finishing:
            cell.due = -inf
        else:
            cell.due = min(self._due, default=inf)

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
        for ci, c in enumerate(self.inputs):
            c.barrier_seen = None
            if not c.done:
                self._attach(ci)
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

        # 2. drain the inputs whose slots show an item or a credit grant
        # due, in round-robin order from this run's first input; a done
        # or aligned input reads inf. Draining one input rewrites no
        # other input's slots, so the ready inputs are listed up front.
        inbox: list[tuple[int, Event]] = []
        inputs, due, ack = self.inputs, self._due, self._ack
        n_in = len(inputs)
        first = self._rr_input % n_in if n_in else 0
        self._rr_input += 1
        order = chain(range(first, n_in), range(first))
        if now_ms - self.cell.ack >= ACK_INTERVAL_MS:  # some credit grant is due
            order = [
                ci for ci in order if due[ci] <= now_ms or now_ms - ack[ci] >= ACK_INTERVAL_MS
            ]
        else:
            order = [ci for ci in order if due[ci] <= now_ms]
        want = self.processor.wanted_ordinal()
        if want is not None and any(c.ordinal == want and not c.done for c in inputs):
            order = [ci for ci in order if inputs[ci].ordinal == want]
        limit = self.inbox_limit
        polled_ctl = False
        for ci in order:
            if len(inbox) >= limit:
                break  # no later input is polled in this run
            ch = inputs[ci]
            poll = ch.poll
            while len(inbox) < limit:
                item = poll(now_ms)
                if item is None:
                    break
                if isinstance(item, Event):
                    inbox.append((ch.ordinal, item))
                    continue
                if isinstance(item, Watermark):
                    if item.value > ch.wm:
                        old, ch.wm = ch.wm, item.value
                        self._leave_low(old)
                elif isinstance(item, Barrier):
                    ch.barrier_seen = item.snapshot_id
                    polled_ctl = True
                elif isinstance(item, EndOfStream):
                    ch.done = True
                    polled_ctl = True
                    self._leave_low(ch.wm)
                    if all(c.done for c in inputs if c.ordinal == ch.ordinal):
                        self.processor.on_input_done(ch.ordinal)
                break  # handle a control item at a batch boundary
            if ch.done or (ch.barrier_seen is not None and self.exactly_once):
                self._detach(ci)  # an aligned input is blocked until all arrive
            else:
                due[ci], a = ch.wake_up()
                if a != ack[ci]:  # a credit grant
                    ack[ci] = a
                    self._ack_moved = True

        # 3. process data
        if inbox:
            progress = True
            for ordinal, ev in inbox:
                self.out.push_events(self.processor.process(ev, ordinal))

        # 4. control transitions
        if self._low > self.wm:
            self._advance_wm()
            progress = True
        if polled_ctl:
            sid = self._barrier_ready()
            if sid is not None:
                self._take_snapshot(sid)
                progress = True
            if not self._finishing and all(c.done for c in inputs) and inputs:
                self.out.push_events(self.processor.complete())
                self.out.push_control(EndOfStream())
                self._finishing = True
                progress = True

        flushed = self.out.flush(now_ms)
        if self._finishing and flushed:
            self.done = True
        self._set_cell()
        cost = RUN_OVERHEAD_MS + len(inbox) * self.cost_per_item_ms
        if self.metrics is not None and inbox:
            self.metrics.add_items(self.name, len(inbox))
        return progress or not flushed, cost if (progress or inbox) else RUN_OVERHEAD_MS / 4
