"""Bounded single-producer single-consumer queues.

Tasklets on the same node exchange data through bounded SPSC queues
(§3.2): one queue instance per producer/consumer tasklet pair. In Jet
these are wait-free ring buffers; under the simulator's cooperative
scheduling there is no real concurrency, so a deque with a capacity
check reproduces the *behavioural* contract that matters for the
experiments: ``offer`` fails when full (local backpressure, §3.3) and
``poll`` never blocks.

:class:`NetworkChannel` decorates a queue with link latency and
credit-based flow control, modelling the distributed-edge receive
window of §3.3 (ack every 100 ms, ~300 ms worth of credits).

Every queue knows its consumer's due slot for it and the consumer's
:class:`WakeCell`, and keeps both current from the push side: an
``offer`` to a local queue marks the slot and the consumer ready now,
one to a network channel lowers them to the item's delivery time. Two
consumer-side questions are answered without changing state:
``ready(now_ms)`` — would a poll at ``now_ms`` return an item or grant
credits — and ``wake_up()`` — ``(due_ms, ack_from_ms)``: ``-inf`` when
an item is waiting now, else the delivery time of the oldest in-flight
item, and the time of the last credit grant — from which the consumer
rewrites its slots after it drains the queue.

Both kinds take ``(item, now_ms)`` in ``offer`` and ``now_ms`` in
``poll`` (a local queue ignores the time), so a consumer binds ``poll``
once per queue, and a network channel grants credits from its own
``poll``.
"""
from collections import deque
from math import inf

#: Jet's default edge queue capacity (1024 items per SPSC queue).
DEFAULT_CAPACITY = 1024

#: §3.3 flow control: the receiver acks every 100 ms, granting a
#: receive window of ~300 ms worth of its consumption rate.
ACK_INTERVAL_MS = 100.0
RECEIVE_WINDOW_MS = 300.0


class WakeCell:
    """When a consumer could next have work, kept current by producers.

    ``due`` is the earliest simulated time at which a poll could return
    an item (``-inf``: it has work now); ``ack`` is the time of the
    oldest credit grant among its network inputs (a grant falls due
    ``ACK_INTERVAL_MS`` later). A new cell reads "work now"; once the
    consumer has run, a run at ``at`` is idle exactly when ``at < due
    and at - ack < ACK_INTERVAL_MS``. Cells point only
    upward — a tasklet's to its worker's, which holds the minimum of its
    tasklets' cells — so :meth:`lower` keeps every level current.
    """

    __slots__ = ("due", "ack", "up")

    def __init__(self, due: float = -inf, ack: float = inf, up: "WakeCell | None" = None):
        self.due = due
        self.ack = ack
        self.up = up

    def lower(self, due: float) -> None:
        """Make work due no later than ``due``, here and above."""
        cell = self
        while cell is not None and due < cell.due:
            cell.due = due
            cell = cell.up


#: The cell and due slots of a queue whose consumer does not read it:
#: none yet, the queue is done, or it is blocked on barrier alignment.
#: Both always read "work now", so offers leave them alone.
UNREAD = WakeCell()
UNREAD_DUES = [-inf]


class Consumed:
    """The consumer side a queue keeps current on offer: ``dues[slot]``,
    the consumer's due slot for this queue, and its wake ``cell``."""

    __slots__ = ("cell", "dues", "slot")

    def __init__(self):
        self.detach()

    def attach(self, cell: WakeCell, dues: list, slot: int) -> None:
        """Keep ``dues[slot]`` and ``cell`` current from now on."""
        self.cell = cell
        self.dues = dues
        self.slot = slot

    def detach(self) -> None:
        """Wake nobody: the consumer no longer reads this queue."""
        self.attach(UNREAD, UNREAD_DUES, 0)


class SPSCQueue(Consumed):
    """Bounded FIFO with non-blocking offer/poll."""

    __slots__ = ("capacity", "_q")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        super().__init__()
        self.capacity = capacity
        self._q: deque = deque()

    def offer(self, item, now_ms: float = 0.0) -> bool:
        """Enqueue unless full; returns False (producer backs off) when full."""
        if len(self._q) >= self.capacity:
            return False
        self._q.append(item)
        dues = self.dues
        if dues[self.slot] != -inf:
            dues[self.slot] = -inf
            self.cell.lower(-inf)
        return True

    def poll(self, now_ms: float = 0.0):
        """Dequeue one item, or None when empty."""
        return self._q.popleft() if self._q else None

    def ready(self, now_ms: float) -> bool:
        return bool(self._q)

    def wake_up(self) -> tuple[float, float]:
        return -inf if self._q else inf, inf

    def __len__(self) -> int:
        return len(self._q)


class NetworkChannel(Consumed):
    """A distributed-edge channel: latency + credit flow control.

    The producer spends one *credit* per item; the consumer re-grants
    credits every ``ack_interval_ms`` sized to ``window_ms`` worth of
    its observed consumption rate (§3.3: "in stable state the
    receive_window contains roughly 300 milliseconds' worth of data").
    Items become visible to the consumer ``latency_ms`` after send.
    """

    def __init__(
        self,
        *,
        latency_ms: float = 0.5,
        ack_interval_ms: float = ACK_INTERVAL_MS,
        window_ms: float = RECEIVE_WINDOW_MS,
        initial_credits: int = 4096,
        capacity: int = 1 << 20,
    ):
        super().__init__()
        self.latency_ms = latency_ms
        self.ack_interval_ms = ack_interval_ms
        self.window_ms = window_ms
        self.credits = initial_credits
        self._in_flight: deque = deque()  # (available_at_ms, item)
        self._ready: deque = deque()
        self.capacity = capacity
        self._last_ack_ms = 0.0
        self._consumed_since_ack = 0
        self.sent = 0
        self.received = 0

    def offer(self, item, now_ms: float) -> bool:
        """Send one item if a credit is available."""
        if self.credits <= 0 or len(self._in_flight) + len(self._ready) >= self.capacity:
            return False
        self.credits -= 1
        due = now_ms + self.latency_ms
        self._in_flight.append((due, item))
        self.sent += 1
        dues = self.dues
        if due < dues[self.slot]:
            dues[self.slot] = due
            self.cell.lower(due)
        return True

    def poll(self, now_ms: float):
        """Grant credits if an ack is due, then receive one delivered
        item, or None."""
        if now_ms - self._last_ack_ms >= self.ack_interval_ms:
            self.maybe_ack(now_ms)
        in_flight, ready = self._in_flight, self._ready
        while in_flight and in_flight[0][0] <= now_ms:
            ready.append(in_flight.popleft()[1])
        if not ready:
            return None
        self._consumed_since_ack += 1
        self.received += 1
        return ready.popleft()

    def maybe_ack(self, now_ms: float) -> None:
        """Consumer-side credit grant, every ``ack_interval_ms``.

        The new window is the consumption observed since the last ack
        scaled to ``window_ms`` (adaptive sizing), never below a floor
        so a stalled flow can restart.
        """
        if now_ms - self._last_ack_ms < self.ack_interval_ms:
            return
        elapsed = max(now_ms - self._last_ack_ms, 1e-9)
        rate_per_ms = self._consumed_since_ack / elapsed
        window = max(int(rate_per_ms * self.window_ms), 64)
        backlog = len(self._in_flight) + len(self._ready)
        self.credits = max(self.credits, window - backlog)
        self._last_ack_ms = now_ms
        self._consumed_since_ack = 0

    def ready(self, now_ms: float) -> bool:
        return bool(
            self._ready
            or (self._in_flight and self._in_flight[0][0] <= now_ms)
            or now_ms - self._last_ack_ms >= self.ack_interval_ms
        )

    def wake_up(self) -> tuple[float, float]:
        if self._ready:
            due = -inf
        else:
            due = self._in_flight[0][0] if self._in_flight else inf
        return due, self._last_ack_ms

    def __len__(self) -> int:
        return len(self._in_flight) + len(self._ready)
