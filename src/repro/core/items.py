"""Stream items flowing through the engine's queues.

Three control item kinds travel in-band with data, exactly as in Jet:

* :class:`Watermark` — event-time progress marker (§2.2, out-of-order
  handling);
* :class:`Barrier` — Chandy–Lamport checkpoint barrier (§4.4);
* :class:`EndOfStream` — batch-side completion marker (Pipeline API's
  batch stages assume finite input, §2.1).

Data items are plain payloads wrapped in :class:`Event` carrying the
event timestamp used by the paper's latency-clock methodology (§7.1).
"""
from dataclasses import dataclass
from typing import Any

#: Watermark value used to flush all windows at end of stream.
WM_MAX = 1 << 62


@dataclass(frozen=True)
class Event:
    """A data record with its event-time timestamp (epoch ms)."""

    payload: Any
    ts_ms: int

    def with_payload(self, payload) -> "Event":
        return self.__class__(payload, self.ts_ms)


@dataclass(frozen=True)
class FlushedEvent(Event):
    """An event emitted by the end-of-stream flush (watermark ``WM_MAX``).

    It is real output, but its window never closes in an unbounded
    stream, and its ``ts_ms`` may lie after the clock: it stays out of
    the §7.1 latency clock, as the flush's window triggers do.
    Stateless stages keep the mark through :meth:`with_payload`.
    """


@dataclass(frozen=True)
class Watermark:
    """Asserts no further events with ``ts_ms < value`` on this channel."""

    value: int


@dataclass(frozen=True)
class Barrier:
    """Checkpoint barrier for snapshot ``snapshot_id``."""

    snapshot_id: int


@dataclass(frozen=True)
class EndOfStream:
    """The producing instance has no further items."""
