"""Per-layer tracing installed from outside the program.

``install(tracer)`` replaces public methods and module functions of
``repro`` with wrappers that count calls and time them. Nothing under
``src/`` is edited: the wrappers live here and are set on the classes
and modules at run time, only in a traced run (``--trace 1``).

Two kinds of record are kept, both in memory:

* **spans** ``(id, name, start, end, parent)`` at coarse boundaries —
  workload, engine job, ``JetEngine.run``, ``JetEngine.fail_node``,
  ``sweep``, streaming query, streaming micro-batch, 2PC sink call;
* **aggregates** for hot per-item calls — a call count and the call's
  *self* time (its duration minus the time spent in wrapped calls it
  made), so the self times of all layers add up to the traced wall time.

``Tracer.write`` dumps both to JSON when the benchmark ends.
"""
import json
import time
from collections import defaultdict
from contextlib import contextmanager

#: Processor classes whose ``process``/``on_watermark`` are timed.
PROCESSOR_CLASSES = (
    "FusedProcessor",
    "PaneAccumulator",
    "WindowCombiner",
    "WindowTop",
    "TumblingJoin",
    "HashJoin",
    "SinkProcessor",
)


def _per_layer_units() -> dict[str, str]:
    units = {
        # core.engine
        "engine.worker_slices": "count",
        "engine.idle_slice_ratio": "ratio",
        "engine.loop_self_s": "s",
        "engine.sim_ms": "ms",
        "engine.recoveries": "count",
        "engine.recovery_s": "s",
        "engine.snapshots_completed": "count",
        # engine model outputs (simulated time, not program timings)
        "engine.trigger_latency_p50_ms": "ms",
        "engine.trigger_latency_p99_ms": "ms",
        "engine.trigger_samples": "count",
        "engine.sink_latency_sample_ratio": "ratio",
        # core.tasklet
        "tasklet.runs": "count",
        "tasklet.productive_ratio": "ratio",
        "tasklet.items": "count",
        "tasklet.self_s": "s",
        # core.source
        "source.runs": "count",
        "source.items": "count",
        "source.backpressured_runs": "count",
        "source.self_s": "s",
        # core.queues
        "queues.offers": "count",
        "queues.offers_failed": "count",
        "queues.polls": "count",
        "queues.empty_poll_ratio": "ratio",
        "queues.high_water": "count",
        "queues.self_s": "s",
        "network.items": "count",
        "network.credit_stalls": "count",
        "network.acks": "count",
    }
    # core.processors
    for cls in PROCESSOR_CLASSES:
        units[f"processors.{cls}.process_calls"] = "count"
        units[f"processors.{cls}.process_self_s"] = "s"
        units[f"processors.{cls}.on_watermark_calls"] = "count"
        units[f"processors.{cls}.on_watermark_self_s"] = "s"
    units.update(
        {
            # imdg
            "imdg.puts": "count",
            "imdg.put_self_s": "s",
            "imdg.gets": "count",
            "imdg.scan_self_s": "s",
            "imdg.maps_at_end": "count",
            "imdg.entries_at_end": "count",
            "imdg.rebalance_s": "s",
            # sinks: the engine's ExternalStore and Spark's 2PC sink
            "sink.commits": "count",
            "sink.commit_dedups": "count",
            "sink.rows": "count",
            "sink2pc.calls": "count",
            "sink2pc.self_s": "s",
            "sink2pc.replays_skipped": "count",
            # nexmark generation and input preparation
            "gen.generate_s": "s",
            "gen.adapt_s": "s",
            "replayable.write_chunks_s": "s",
            # Spark Structured Streaming, from StreamingQuery.recentProgress
            "stream.batches": "count",
            "stream.batch_p90_ms": "ms",
            "stream.add_batch_ms": "ms",
            "stream.get_batch_ms": "ms",
            "stream.query_planning_ms": "ms",
            "stream.wal_commit_ms": "ms",
            "stream.state_rows": "count",
            "stream.state_memory_bytes": "bytes",
            # core.fluid / harness.sweep
            "fluid.simulate_s": "s",
            "sweep.tasks": "count",
            "sweep.wall_s": "s",
            "sweep.overhead_s": "s",
            # host speed: mean time of the calibration kernel in this run
            "host.calibration_s": "s",
            # cost of tracing itself
            "trace.items_per_s": "1/s",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


#: Every per-layer metric the traced run reports, with its unit. A
#: metric of a layer a workload does not reach reads 0.
PER_LAYER_UNITS = _per_layer_units()


class Tracer:
    """In-memory spans plus per-call aggregates.

    Aggregates are reset per operation (:meth:`reset`) so each engine
    job, streaming query or sweep yields its own numbers; spans
    accumulate for the whole run.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._span_stack: list[int] = []
        self.calls: defaultdict = defaultdict(int)
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(int)
        self.maxes: defaultdict = defaultdict(int)
        self.stack: list[float] = [0.0]
        self.ack_last: dict = {}
        self.slice_progress = [False]
        self.t0 = time.perf_counter()
        #: (owner, attribute, original or None if inherited) per wrapper
        self.patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for d in (self.calls, self.self_s, self.total_s, self.counts, self.maxes, self.ack_last):
            d.clear()
        self.stack[:] = [0.0]
        self.slice_progress[0] = False

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._span_stack[-1] if self._span_stack else None,
            "start": time.perf_counter() - self.t0,
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._span_stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0
            self._span_stack.pop()

    def add_span(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a finished span measured elsewhere (e.g. by Spark),
        as a child of the innermost open span."""
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "parent": self._span_stack[-1] if self._span_stack else None,
                "start": start,
                "end": end,
                **attrs,
            }
        )

    def from_unix(self, ts: float) -> float:
        """Convert a wall-clock (epoch) timestamp to span time."""
        return ts - time.time() + (time.perf_counter() - self.t0)

    def write(self, path: str, metrics: dict) -> None:
        with open(path, "w") as f:
            json.dump({"metrics": metrics, "spans": self.spans}, f)


# -- wrappers -------------------------------------------------------------


def _timed(tr: Tracer, key: str, fn, *, span: bool = False, after=None):
    """Wrap ``fn``: count the call under ``key`` and add its self time.

    ``after(args, result)`` runs outside the timed interval, for
    counters that look at the result. ``span=True`` also records a
    span (coarse calls only).
    """
    clock = time.perf_counter
    stack, calls, self_s, total_s = tr.stack, tr.calls, tr.self_s, tr.total_s

    def wrapper(*args, **kwargs):
        stack.append(0.0)
        t0 = clock()
        try:
            if span:
                with tr.span(key):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            child = stack.pop()
            stack[-1] += dt
            calls[key] += 1
            self_s[key] += dt - child
            total_s[key] += dt
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_iter(tr: Tracer, key: str, fn):
    """Wrap a generator function: time only the work inside ``next``."""
    clock = time.perf_counter
    stack, calls, self_s = tr.stack, tr.calls, tr.self_s

    def wrapper(*args, **kwargs):
        calls[key] += 1
        it = fn(*args, **kwargs)
        while True:
            stack.append(0.0)
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                self_s[key] += dt - child
            yield item

    wrapper.__wrapped__ = fn
    return wrapper


def _set(tr: Tracer, owner, name: str, value) -> None:
    tr.patches.append((owner, name, owner.__dict__.get(name)))
    setattr(owner, name, value)


def _wrap(tr: Tracer, owner, name: str, key: str, fn=None, **kw) -> None:
    """Replace ``owner.name`` by ``_timed(tr, key, fn or the original)``."""
    _set(tr, owner, name, _timed(tr, key, fn or getattr(owner, name), **kw))


def uninstall(tr: Tracer) -> None:
    """Restore every patched attribute (inherited ones are deleted)."""
    while tr.patches:
        owner, name, orig = tr.patches.pop()
        if orig is None:
            delattr(owner, name)
        else:
            setattr(owner, name, orig)


def install(tr: Tracer) -> None:
    """Install every wrapper. Imports are local so that an untraced
    run loads nothing from here but the metric list."""
    from repro.core import engine, fluid, processors, queues, source, tasklet
    from repro.harness import sweep
    from repro.imdg import cluster, imap
    from repro.nexmark import generator, queries_jet
    from repro.sinks import exactly_once, replayable

    counts, maxes, progress = tr.counts, tr.maxes, tr.slice_progress

    # core.engine ----------------------------------------------------------
    slice_run = engine.Worker.run_slice

    def run_slice(self, now_ms):
        progress[0] = False
        slice_run(self, now_ms)
        counts["engine.worker_slices"] += 1
        if not progress[0]:
            counts["engine.idle_slices"] += 1

    _wrap(tr, engine.Worker, "run_slice", "engine.slice", run_slice)
    _wrap(tr, engine.JetEngine, "run", "JetEngine.run", span=True)
    _wrap(tr, engine.JetEngine, "fail_node", "JetEngine.fail_node", span=True)

    # core.tasklet / core.source ------------------------------------------
    def after_tasklet(args, result):
        if result[0]:
            counts["tasklet.productive"] += 1
            progress[0] = True

    _wrap(tr, tasklet.Tasklet, "run", "tasklet", after=after_tasklet)

    src_run = source.SourceTasklet.run

    def source_run(self, now_ms):
        off0 = self.offset
        result = src_run(self, now_ms)
        emitted = self.offset - off0
        counts["source.items"] += max(emitted, 0)
        if result[0]:
            progress[0] = True
        if (
            not self.done
            and self.offset < len(self.events)
            and self.events[self.offset][0] <= now_ms
            and emitted < self.batch
        ):
            # an event was due but the source stopped short of its batch:
            # the outbound queue (or its control flush) refused it
            counts["source.backpressured_runs"] += 1
        return result

    _wrap(tr, source.SourceTasklet, "run", "source", source_run)

    # core.queues ------------------------------------------------------------
    def after_offer(args, ok):
        counts["queues.offers"] += 1
        q = args[0]
        if not ok:
            counts["queues.offers_failed"] += 1
            if isinstance(q, queues.NetworkChannel) and q.credits <= 0:
                counts["network.credit_stalls"] += 1
        else:
            n = len(q)
            if n > maxes["queues.high_water"]:
                maxes["queues.high_water"] = n

    def after_poll(args, item):
        counts["queues.polls"] += 1
        if item is None:
            counts["queues.empty_polls"] += 1
        elif isinstance(args[0], queues.NetworkChannel):
            counts["network.items"] += 1

    ack_last, ack_run = tr.ack_last, queues.NetworkChannel.maybe_ack

    def maybe_ack(self, now_ms):
        # mirrors the channel's own rule: the first call, then one grant
        # every ack_interval_ms
        last = ack_last.get(self)
        if last is None or now_ms - last >= self.ack_interval_ms:
            ack_last[self] = now_ms
            counts["network.acks"] += 1
        return ack_run(self, now_ms)

    for cls in (queues.SPSCQueue, queues.NetworkChannel):
        _wrap(tr, cls, "offer", "queues", after=after_offer)
        _wrap(tr, cls, "poll", "queues", after=after_poll)
    _wrap(tr, queues.NetworkChannel, "maybe_ack", "queues", maybe_ack)

    # core.processors --------------------------------------------------------
    for name in PROCESSOR_CLASSES:
        for meth in ("process", "on_watermark"):
            _wrap(tr, getattr(processors, name), meth, f"processors.{name}.{meth}")

    # imdg -----------------------------------------------------------------
    _wrap(tr, imap.IMap, "put", "imdg.put")
    _wrap(tr, imap.IMap, "get", "imdg.get")
    _set(tr, imap.IMap, "entry_set", _timed_iter(tr, "imdg.scan", imap.IMap.entry_set))
    for meth in ("fail_node", "add_node"):
        _wrap(tr, cluster.Cluster, meth, "imdg.rebalance")

    # sinks ------------------------------------------------------------------
    commit, emit = processors.ExternalStore.commit, processors.ExternalStore.emit

    def store_commit(self, token, payloads):
        n0 = len(self.rows)
        commit(self, token, payloads)
        counts["sink.commits"] += 1
        counts["sink.rows"] += len(self.rows) - n0
        if payloads and len(self.rows) == n0:
            counts["sink.commit_dedups"] += 1

    def store_emit(self, payload):
        emit(self, payload)
        counts["sink.rows"] += 1

    _wrap(tr, processors.ExternalStore, "commit", "sink.store", store_commit)
    _wrap(tr, processors.ExternalStore, "emit", "sink.store", store_emit)

    timed_tpc = _timed(tr, "sink2pc", exactly_once.TwoPhaseCommitSink.__call__, span=True)

    def tpc(self, batch_df, batch_id):
        # checked before the timed call, so the listing costs no sink time
        if batch_id in self.committed_batches():
            counts["sink2pc.replays_skipped"] += 1
        return timed_tpc(self, batch_df, batch_id)

    _set(tr, exactly_once.TwoPhaseCommitSink, "__call__", tpc)

    # nexmark / input preparation ------------------------------------------
    _wrap(tr, generator, "generate", "gen.generate")
    for fn in ("bid_events", "person_events", "auction_events"):
        _wrap(tr, queries_jet, fn, "gen.adapt")
    _wrap(tr, replayable, "write_chunks", "replayable.write_chunks")

    # core.fluid / harness.sweep -------------------------------------------
    _wrap(tr, fluid, "simulate", "fluid.simulate")
    _wrap(tr, sweep, "sweep", "sweep", span=True)


# -- per-operation metrics --------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def engine_job_metrics(tr: Tracer, eng) -> dict:
    """Per-layer numbers of one traced engine job."""
    import numpy as np

    c, calls, self_s, total_s = tr.counts, tr.calls, tr.self_s, tr.total_s
    m = eng.metrics
    lat = np.array([x for _, x in m.trigger_latencies], dtype=float)
    n_rows = len(eng.results())
    out = {
        "engine.worker_slices": c["engine.worker_slices"],
        "engine.idle_slice_ratio": _ratio(c["engine.idle_slices"], c["engine.worker_slices"]),
        "engine.loop_self_s": self_s["JetEngine.run"] + self_s["engine.slice"],
        "engine.sim_ms": eng.now - eng.t0,
        "engine.recoveries": m.recoveries,
        "engine.recovery_s": total_s["JetEngine.fail_node"],
        "engine.snapshots_completed": m.snapshots_completed,
        "engine.trigger_latency_p50_ms": float(np.percentile(lat, 50)) if len(lat) else 0.0,
        "engine.trigger_latency_p99_ms": float(np.percentile(lat, 99)) if len(lat) else 0.0,
        "engine.trigger_samples": len(lat),
        "engine.sink_latency_sample_ratio": _ratio(len(m.event_latencies), n_rows),
        "tasklet.runs": calls["tasklet"],
        "tasklet.productive_ratio": _ratio(c["tasklet.productive"], calls["tasklet"]),
        "tasklet.items": sum(m.items.values()),
        "tasklet.self_s": self_s["tasklet"],
        "source.runs": calls["source"],
        "source.items": c["source.items"],
        "source.backpressured_runs": c["source.backpressured_runs"],
        "source.self_s": self_s["source"],
        "queues.offers": c["queues.offers"],
        "queues.offers_failed": c["queues.offers_failed"],
        "queues.polls": c["queues.polls"],
        "queues.empty_poll_ratio": _ratio(c["queues.empty_polls"], c["queues.polls"]),
        "queues.high_water": tr.maxes["queues.high_water"],
        "queues.self_s": self_s["queues"],
        "network.items": c["network.items"],
        "network.credit_stalls": c["network.credit_stalls"],
        "network.acks": c["network.acks"],
        "imdg.puts": calls["imdg.put"],
        "imdg.put_self_s": self_s["imdg.put"],
        "imdg.gets": calls["imdg.get"],
        "imdg.scan_self_s": self_s["imdg.scan"],
        "imdg.rebalance_s": total_s["imdg.rebalance"],
        "sink.commits": c["sink.commits"],
        "sink.commit_dedups": c["sink.commit_dedups"],
        "sink.rows": c["sink.rows"],
        "gen.generate_s": total_s["gen.generate"],
        "gen.adapt_s": total_s["gen.adapt"],
    }
    for cls in PROCESSOR_CLASSES:
        for meth, short in (("process", "process"), ("on_watermark", "on_watermark")):
            key = f"processors.{cls}.{meth}"
            out[f"processors.{cls}.{short}_calls"] = calls[key]
            out[f"processors.{cls}.{short}_self_s"] = self_s[key]
    out.update(grid_at_end(eng.cluster))
    return out


def grid_at_end(cluster) -> dict:
    """IMDG maps holding data and entries on primary replicas, read
    from the cluster's public membership and storage."""
    maps: set = set()
    entries = 0
    for nid, node in cluster.nodes.items():
        for name, frags in node.storage.items():
            for pid, frag in frags.items():
                if frag and cluster.table.primary(pid) == nid:
                    maps.add(name)
                    entries += len(frag)
    return {"imdg.maps_at_end": len(maps), "imdg.entries_at_end": entries}
