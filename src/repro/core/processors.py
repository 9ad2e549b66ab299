"""Processors: the per-vertex computation logic (§3.2 "Jet Processors").

A processor implements the custom logic of a DAG vertex. The tasklet
feeds it one event at a time (from its inbox), collects emitted events
into the outbox, and drives watermark/completion callbacks. Processors
are written against simulated time: the owning tasklet sets ``now_ms``
before every call, which window operators use to stamp trigger times
for the paper's latency clock (§7.1).

State contract for fault tolerance (§4.4): keyed state is exposed via
``save_keyed``/``restore_keyed``; on restore the engine merges partial
values from different instances with the processor's ``merge`` and
routes each entry by its ``record_key``. Instance-local state goes via
``save_inst``/``restore_inst``; a sink's ``save_inst`` seals its epoch,
the 2PC prepare (§4.5). Window stages keep keyed state in a
:class:`PaneIndex`.
"""
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import add
from typing import Any, Callable

from .items import WM_MAX, Event, FlushedEvent


class Processor:
    """Base processor; subclasses override what they need."""

    #: set by the owning tasklet before each run
    now_ms: float = 0.0

    def wanted_ordinal(self) -> int | None:
        """If not None, the tasklet drains only this input ordinal until
        it completes (priority edges — used by hash-join build sides)."""
        return None

    def process(self, ev: Event, ordinal: int) -> list[Event]:
        """Handle one input event; return emitted events."""
        raise NotImplementedError

    def on_watermark(self, wm: int) -> list[Event]:
        """Event-time progress reached ``wm``; flush what is complete."""
        return []

    def on_input_done(self, ordinal: int) -> None:
        """One input channel reached end-of-stream (priority-edge hook)."""

    def complete(self) -> list[Event]:
        """All inputs exhausted; emit any remaining output."""
        return []

    # -- state ----------------------------------------------------------

    def save_keyed(self) -> dict:
        return {}

    def restore_keyed(self, entries: dict) -> None:
        pass

    @staticmethod
    def merge(a, b):
        """Merge two partial keyed-state values (override if stateful)."""
        raise NotImplementedError

    @staticmethod
    def record_key(state_key):
        """The record key that routes a restored keyed-state entry."""
        return state_key

    def save_inst(self):
        return None

    def restore_inst(self, state) -> None:
        pass


# --------------------------------------------------------------------------
# Stateless transforms (+ fusion)
# --------------------------------------------------------------------------


class FusedProcessor(Processor):
    """Chain of fused stateless stages (operator chaining, §3.1).

    ``stages`` is a list of ``("map", fn)`` / ``("filter", pred)``
    entries applied in order without intermediate queues.
    """

    def __init__(self, stages: list[tuple[str, Callable]]):
        self.stages = stages

    def process(self, ev: Event, ordinal: int) -> list[Event]:
        p = ev.payload
        for kind, fn in self.stages:
            if kind == "map":
                p = fn(p)
                if p is None:
                    return []
            elif kind == "filter":
                if not fn(p):
                    return []
            else:  # pragma: no cover - guarded at pipeline build time
                raise ValueError(kind)
        return [ev.with_payload(p)]


# --------------------------------------------------------------------------
# Two-stage sliding-window aggregation (§3.1: local partial results
# followed by global combining)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PaneRecord:
    """A flushed stage-1 partial: one key's accumulator for one pane."""

    key: Any
    pane_start: int
    acc: Any


@dataclass(frozen=True)
class WindowResult:
    """One key's aggregate for one sliding window, stamped with the
    simulated time at which the combiner started emitting it."""

    window_start: int
    window_end: int
    key: Any
    value: Any
    emit_ms: float


class PaneIndex:
    """Keyed partials indexed by pane: ``pane_start -> {key: acc}``.

    ``starts`` keeps the live pane starts sorted, so the window stages
    find complete and dead panes by bisection instead of scanning every
    entry. :meth:`add` folds a value into a key's pane with
    ``combine(cur, new)``, which must return a new value and never
    mutate one: a snapshot's IMap holds the saved values themselves.
    :meth:`entries` is the flat ``{(key, pane_start): acc}`` form that
    snapshots store.
    """

    def __init__(self, combine: Callable[[Any, Any], Any], entries: dict | None = None):
        self.combine = combine
        self.panes: dict[int, dict[Any, Any]] = {}
        self.starts: list[int] = []
        for (key, pane), acc in (entries or {}).items():
            self.add(key, pane, acc)

    def add(self, key, pane: int, acc) -> None:
        per_key = self.panes.get(pane)
        if per_key is None:
            per_key = self.panes[pane] = {}
            insort(self.starts, pane)
        cur = per_key.get(key)
        per_key[key] = acc if cur is None else self.combine(cur, acc)

    def first_from(self, lo: int) -> int | None:
        """The earliest live pane starting at or after ``lo``."""
        i = bisect_left(self.starts, lo)
        return self.starts[i] if i < len(self.starts) else None

    def pop_through(self, last: int) -> list[tuple[int, dict]]:
        """Remove the panes starting at or before ``last``; return them
        in pane order."""
        i = bisect_right(self.starts, last)
        out = [(p, self.panes.pop(p)) for p in self.starts[:i]]
        del self.starts[:i]
        return out

    def entries(self) -> dict:
        return {(key, p): acc for p, per_key in self.panes.items() for key, acc in per_key.items()}


class PaneStage(Processor):
    """A windowed stage whose keyed state is one :class:`PaneIndex`,
    combined with the stage's ``merge`` (partial counts add up unless a
    subclass says otherwise). Its state keys are ``(key, pane_start)``,
    routed on restore by the record key."""

    merge = staticmethod(add)

    def __init__(self):
        self.panes = PaneIndex(self.merge)

    def save_keyed(self) -> dict:
        return self.panes.entries()

    def restore_keyed(self, entries: dict) -> None:
        self.panes = PaneIndex(self.merge, entries)

    @staticmethod
    def record_key(state_key):
        return state_key[0]


class PaneAccumulator(PaneStage):
    """Stage 1: accumulate events into slide-aligned panes per key.

    Flushes a pane downstream once the watermark passes its end — this
    is the "local partial results" half of Jet's two-stage approach, so
    the data crossing the distributed edge is bounded by
    ``n_keys × panes``, not by the event rate (the Fig 10 effect).
    """

    def __init__(self, key_fn: Callable[[Any], Any], slide_ms: int):
        super().__init__()
        self.key_fn = key_fn
        self.slide_ms = slide_ms

    def process(self, ev: Event, ordinal: int) -> list[Event]:
        pane = (ev.ts_ms // self.slide_ms) * self.slide_ms
        self.panes.add(self.key_fn(ev.payload), pane, 1)
        return []

    def on_watermark(self, wm: int) -> list[Event]:
        out = []
        for pane, per_key in self.panes.pop_through(wm - self.slide_ms):
            for key in sorted(per_key, key=repr):
                out.append(Event(PaneRecord(key, pane, per_key[key]), pane + self.slide_ms - 1))
        return out


class WindowCombiner(PaneStage):
    """Stage 2: combine pane partials into sliding-window results.

    Keyed by record key (distributed-partitioned input edge). When the
    watermark passes a window's end, every key with data in that window
    emits a :class:`WindowResult`; ``on_trigger`` (engine-injected)
    records the §7.1 latency sample ``now_ms - window_end``.

    Window ends are walked forward from ``emitted_upto``. A running sum
    holds the window ending at ``_end``: moving one slide adds the pane
    entering the window and subtracts the pane leaving it, so one window
    end costs the keys of two panes, not those of ``size/slide`` panes.
    """

    def __init__(
        self,
        size_ms: int,
        slide_ms: int,
        *,
        on_trigger: Callable[[int, float], None] | None = None,
    ):
        assert size_ms % slide_ms == 0
        super().__init__()
        self.size_ms = size_ms
        self.slide_ms = slide_ms
        self.on_trigger = on_trigger
        #: max window end already emitted — guards against re-emission
        #: across watermark advances and across snapshot restore
        self.emitted_upto = -1
        #: per-key sum of the live panes in ``[_end - size, _end)``;
        #: ``_end`` is None until rebuilt from the panes
        self._end: int | None = None
        self._sum: dict[Any, int] = {}

    def process(self, ev: Event, ordinal: int) -> list[Event]:
        r: PaneRecord = ev.payload
        self.panes.add(r.key, r.pane_start, r.acc)
        if self._end is not None and self._end - self.size_ms <= r.pane_start < self._end:
            self._add({r.key: r.acc})
        return []

    def _add(self, per_key: dict) -> None:
        s = self._sum
        for key, acc in per_key.items():
            cur = s.get(key)
            s[key] = acc if cur is None else cur + acc

    def _subtract(self, per_key: dict) -> None:
        s = self._sum
        for key, acc in per_key.items():
            left = s[key] - acc
            if left:
                s[key] = left
            else:
                del s[key]

    def _slide_to(self, end: int) -> None:
        """Move the running sum to the window ``[end - size, end)``."""
        size, panes = self.size_ms, self.panes.panes
        if self._end is None or end - self._end >= size:
            self._sum = {}
            entering, leaving = range(end - size, end, self.slide_ms), ()
        else:
            entering = range(self._end, end, self.slide_ms)
            leaving = range(self._end - size, end - size, self.slide_ms)
        for p in entering:
            if p in panes:
                self._add(panes[p])
        for p in leaving:
            if p in panes:
                self._subtract(panes[p])
        self._end = end

    def on_watermark(self, wm: int) -> list[Event]:
        # windows [s, s+size) with s+size <= wm are complete; ends are
        # slide-aligned, and a window holds data iff a pane lies in it
        out = []
        size, slide = self.size_ms, self.slide_ms
        end = (self.emitted_upto // slide + 1) * slide
        while end <= wm:
            first = self.panes.first_from(end - size)
            if first is None:
                break
            end = max(end, first + slide)  # skip windows holding no pane
            if end > wm:
                break
            self._slide_to(end)
            # a WM_MAX flush is an end-of-stream drain, not a §7.1
            # latency-clock trigger (those windows never close in an
            # unbounded stream)
            if self.on_trigger is not None and wm < WM_MAX:
                self.on_trigger(end, self.now_ms)
            per_key = self._sum
            for key in sorted(per_key, key=repr):
                out.append(
                    Event(
                        WindowResult(end - size, end, key, per_key[key], self.now_ms),
                        end - 1,
                    )
                )
            end += slide
        self.emitted_upto = max(self.emitted_upto, wm)
        # a pane p is dead once its last containing window ([p, p+size))
        # has been emitted
        for p, dead in self.panes.pop_through(self.emitted_upto - size):
            if self._end is not None and self._end - size <= p < self._end:
                self._subtract(dead)
        return out

    def restore_keyed(self, entries: dict) -> None:
        super().restore_keyed(entries)
        self._end = None

    def save_inst(self):
        return self.emitted_upto

    def restore_inst(self, state) -> None:
        if state is not None:
            self.emitted_upto = state
        self._end = None


class WindowTop(PaneStage):
    """Stage 3 (Q5's "hot items"): per window, keep the keys with the
    maximum value. Global single instance; input is complete for a
    window once the watermark passes its end. Its panes are windows:
    ``window_start -> {key: value}``."""

    def __init__(self, size_ms: int):
        super().__init__()
        self.size_ms = size_ms

    def process(self, ev: Event, ordinal: int) -> list[Event]:
        r: WindowResult = ev.payload
        self.panes.add(r.key, r.window_start, r.value)
        return []

    def on_watermark(self, wm: int) -> list[Event]:
        out = []
        for start, per_key in self.panes.pop_through(wm - self.size_ms):
            best = max(per_key.values())
            for key in sorted((k for k, v in per_key.items() if v == best), key=repr):
                out.append(
                    Event(
                        {"window_start": start, "auction": key, "n_bids": best},
                        start + self.size_ms - 1,
                    )
                )
        return out

    @staticmethod
    def merge(a, b):
        """A window result replayed after a restore replaces the old one."""
        return b


# --------------------------------------------------------------------------
# Joins
# --------------------------------------------------------------------------


class TumblingJoin(PaneStage):
    """Q8-style windowed stream-stream join on a shared key.

    Ordinal 0 carries "left" events (persons), ordinal 1 "right"
    (auctions). Keyed state per ``(key, window_start)`` is
    ``[left_payload | None, right_seen]``; a match is emitted once the
    watermark closes its window, windows in order, keys by ``repr``.
    """

    def __init__(
        self,
        size_ms: int,
        left_key: Callable[[Any], Any],
        right_key: Callable[[Any], Any],
        emit: Callable[[Any, int], Any],
        *,
        on_trigger: Callable[[int, float], None] | None = None,
    ):
        super().__init__()
        self.size_ms = size_ms
        self.left_key = left_key
        self.right_key = right_key
        self.emit = emit
        self.on_trigger = on_trigger

    def process(self, ev: Event, ordinal: int) -> list[Event]:
        win = (ev.ts_ms // self.size_ms) * self.size_ms
        if ordinal == 0:
            self.panes.add(self.left_key(ev.payload), win, [ev.payload, False])
        else:
            self.panes.add(self.right_key(ev.payload), win, [None, True])
        return []

    def on_watermark(self, wm: int) -> list[Event]:
        out = []
        size = self.size_ms
        for win, per_key in self.panes.pop_through(wm - size):
            fired = False
            for key in sorted(per_key, key=repr):
                left, right = per_key[key]
                if left is None or not right:
                    continue
                # one trigger per window with a match; none on the
                # end-of-stream flush
                if not fired and self.on_trigger is not None and wm < WM_MAX:
                    self.on_trigger(win + size, self.now_ms)
                    fired = True
                out.append(Event(self.emit(left, win), win + size - 1))
        return out

    @staticmethod
    def merge(a, b):
        """The latest left wins; the right side is seen if either saw it."""
        return [b[0] if b[0] is not None else a[0], a[1] or b[1]]


class HashJoin(Processor):
    """Batch/stream hash join (§2.1's hybrid pipeline; Q13).

    Ordinal 0 is the finite build side — consumed entirely first via
    ``wanted_ordinal`` (a priority edge). Ordinal 1 then probes the
    hash table per event.
    """

    def __init__(
        self,
        build_key: Callable[[Any], Any],
        probe_key: Callable[[Any], Any],
        merge_fn: Callable[[Any, Any], Any],
    ):
        self.build_key = build_key
        self.probe_key = probe_key
        self.merge_fn = merge_fn
        self.table: dict[Any, Any] = {}
        self.built = False

    def wanted_ordinal(self) -> int | None:
        return None if self.built else 0

    def on_input_done(self, ordinal: int) -> None:
        if ordinal == 0:
            self.built = True

    def process(self, ev: Event, ordinal: int) -> list[Event]:
        if ordinal == 0:
            self.table[self.build_key(ev.payload)] = ev.payload
            return []
        match = self.table.get(self.probe_key(ev.payload))
        return [ev.with_payload(self.merge_fn(ev.payload, match))] if match is not None else []

    def save_keyed(self) -> dict:
        return dict(self.table)

    def restore_keyed(self, entries: dict) -> None:
        self.table = dict(entries)

    def save_inst(self):
        return self.built

    def restore_inst(self, state) -> None:
        if state is not None:
            self.built = state

    @staticmethod
    def merge(a, b):
        return a if a is not None else b


# --------------------------------------------------------------------------
# Sinks
# --------------------------------------------------------------------------


class SinkProcessor(Processor):
    """Terminal vertex recording results and per-event latencies.

    ``transactional=False``: every event goes straight to ``external``
    (at-least-once delivery under replay).
    ``transactional=True``: events buffer in the current epoch; at each
    barrier :meth:`save_inst` seals the epoch into the snapshot, and the
    engine commits it only once the snapshot completes (two-phase
    commit, §4.5), with ``(snapshot, instance)`` dedup on the external
    side.
    """

    def __init__(self, inst_idx: int, external: "ExternalStore", *, transactional: bool):
        self.inst_idx = inst_idx
        self.external = external
        self.transactional = transactional
        self.epoch: list = []
        self.latencies: list[float] = []

    def process(self, ev: Event, ordinal: int) -> list[Event]:
        if not isinstance(ev, FlushedEvent):
            self.latencies.append(self.now_ms - ev.ts_ms)
        if self.transactional:
            self.epoch.append(ev.payload)
        else:
            self.external.emit(ev.payload)
        return []

    def complete(self) -> list[Event]:
        # normal job completion commits the trailing epoch directly
        if self.transactional and self.epoch:
            self.external.commit(("__final__", self.inst_idx), self.epoch)
            self.epoch = []
        return []

    def save_inst(self):
        """Phase 1 of 2PC: seal the epoch buffer into the snapshot."""
        out, self.epoch = self.epoch, []
        return out

    def restore_inst(self, state) -> None:
        # the engine commits the epoch sealed in the snapshot; a
        # restored sink starts an empty one
        self.epoch = []


class ExternalStore:
    """The world outside the job: an acknowledging downstream system.

    ``emit`` appends immediately (non-transactional path); ``commit``
    applies a prepared buffer exactly once per ``(sid, instance)`` token
    — re-commits after recovery are deduplicated, giving end-to-end
    exactly-once when paired with the transactional sink.
    """

    def __init__(self):
        self.rows: list = []
        self._committed: set = set()

    def emit(self, payload) -> None:
        self.rows.append(payload)

    def commit(self, token, payloads: list) -> None:
        if token in self._committed:
            return
        self._committed.add(token)
        self.rows.extend(payloads)
