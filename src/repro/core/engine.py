"""Exact-mode execution engine: a Jet cluster in simulated time.

Deploys a Core DAG across ``n_nodes × threads_per_node`` cooperative
threads exactly as §3.1 describes — the *complete* dataflow graph on
every core — and advances a simulated clock in small scheduler slices.
Within a slice each worker thread executes its tasklets round-robin
(§3.2, Figure 4), charging each run's simulated cost against the slice
budget. Events are real: processors compute real query results, which
the tests compare against Spark and DuckDB.

Idle work is skipped, and simulated timing is unchanged by it. Every
tasklet and worker has a wake cell (:class:`~.queues.WakeCell`) that
producers keep current: a local offer marks the consumer ready, a
network offer lowers its wake-up time to the delivery time, the
coordinator wakes the sources it asks to snapshot, and a tasklet
recomputes its own cell after each run. A worker charges a tasklet whose
cell shows no work at the run's time as an idle run without calling it.
The step loop reads each worker's cell and does not call a worker whose
cell shows no work before its slice ends: the worker is owed one idle
pass, and charges all the passes it is owed at once before its next
run. When no worker made progress in a step, the clock jumps over the
following steps up to the next wake-up — a source arrival, a network
delivery or credit grant, a snapshot trigger, a failure injection, a GC
pause start or end — still by repeated ``+= slice_ms``, owing each
running worker one idle pass per skipped step.

Fault tolerance follows §4.4: a coordinator periodically instructs
source tasklets to snapshot; aligned barriers flow through the DAG;
every tasklet writes its state into IMDG IMaps (replicated, §2.4), one
chunk per instance; a snapshot completes when all tasklets have acked.
``fail_node`` kills a member mid-run — the IMDG promotes backups, a
fresh member joins, the job restarts from the last completed snapshot,
sources replay from their recorded offsets, and transactional sinks
dedup re-commits, yielding end-to-end exactly-once output.

No reference cycle runs through the engine: processors get a plain job
context, partitioned routes hold the partition owner table, and the
snapshot callbacks reach the engine through a weak proxy. A finished
job is freed as soon as its last reference goes, not at the next full
cyclic collection, which would land in whatever phase runs next.
"""
import weakref
from collections import Counter
from dataclasses import dataclass, field
from math import inf

from ..imdg.cluster import Cluster
from ..imdg.imap import IMap
from ..imdg.partition import partition_id
from .dag import DAG
from .gc_model import GcConfig, PauseTracker, pause_schedule
from .processors import ExternalStore
from .queues import ACK_INTERVAL_MS, NetworkChannel, SPSCQueue, WakeCell
from .source import SourceTasklet
from .tasklet import InboundChannel, OutboundEdge, Tasklet


@dataclass
class SimConfig:
    """Engine knobs; defaults mirror the paper's deployment (§7.1)."""

    threads_per_node: int = 2
    slice_ms: float = 0.5
    queue_capacity: int = 1024
    net_latency_ms: float = 0.5
    cost_per_item_ms: float = 0.0005
    inbox_limit: int = 256
    guarantee: str = "none"  # none | at-least-once | exactly-once
    snapshot_interval_ms: float | None = None
    backup_count: int = 1
    gc: GcConfig | None = None
    seed: int = 1


#: Simulated-time horizon of a job: past it the run is taken for a
#: livelock. GC pause schedules are drawn up to the same horizon.
MAX_SIM_MS = 600_000.0


@dataclass
class Metrics:
    """Run metrics: §7.1 latency clock samples and throughput counters."""

    trigger_latencies: list[tuple[int, float]] = field(default_factory=list)
    event_latencies: list[float] = field(default_factory=list)
    items: Counter = field(default_factory=Counter)
    snapshots_completed: int = 0
    recoveries: int = 0

    def add_items(self, name: str, n: int) -> None:
        self.items[name] += n


class _JobCtx:
    """Context handed to vertex processor factories: what they need of
    the job, with no reference back to the engine."""

    def __init__(self, external: ExternalStore, transactional: bool, triggers: list):
        self.external = external
        self.transactional = transactional
        self._triggers = triggers  # Metrics.trigger_latencies

    def record_trigger(self, window_end: int, now_ms: float) -> None:
        self._triggers.append((window_end, now_ms - window_end))


class Worker:
    """One cooperative thread: a round-robin loop over its tasklets.

    Its wake cell holds the minimum of its tasklets' cells: it is
    recomputed after each slice that runs, and lowered by every push to
    one of its tasklets in between. ``owed`` counts the idle passes of
    the slices it was not run in, charged before its next run.
    """

    def __init__(self, slice_ms: float):
        self.tasklets: list = []
        self.slice_ms = slice_ms
        self.progressed = False  # did the last slice's runs make progress
        self.owed = 0
        self.cell = WakeCell()

    def add(self, tasklet) -> None:
        self.tasklets.append(tasklet)
        tasklet.cell.up = self.cell

    def run_slice(self, now_ms: float) -> None:
        """Charge the idle passes owed, then run one slice. The step loop
        calls this only when the cell shows work before the slice ends."""
        self.progressed = False
        if self.owed:
            self.skip_idle_slices(self.owed)
            self.owed = 0
        budget = self.slice_ms
        while budget > 0:
            progressed = False
            for t in self.tasklets:
                at = now_ms + (self.slice_ms - budget)
                c = t.cell
                if at < c.due and at - c.ack < ACK_INTERVAL_MS:
                    budget -= t.skip_idle_runs(1)
                else:
                    p, cost = t.run(at)
                    budget -= cost
                    progressed = progressed or p
                if budget <= 0:
                    break
            if not progressed:
                break
            self.progressed = True
        due = ack = inf
        for t in self.tasklets:
            c = t.cell
            if c.due < due:
                due = c.due
            if c.ack < ack:
                ack = c.ack
        self.cell.due = due
        self.cell.ack = ack

    def skip_idle_slices(self, n: int) -> None:
        """Account for ``n`` skipped slices in which every run was idle:
        each is one pass over the tasklets, as far as the budget goes."""
        budget = self.slice_ms
        for t in self.tasklets:
            budget -= t.skip_idle_runs(n)
            if budget <= 0:
                break


class JetEngine:
    """A job deployed on a simulated Jet cluster backed by the IMDG."""

    def __init__(
        self,
        dag: DAG,
        sources: dict[str, list[tuple[int, int, object]]],
        *,
        n_nodes: int,
        cfg: SimConfig | None = None,
    ):
        dag.validate()
        self.dag = dag
        self.cfg = cfg or SimConfig()
        self.n_nodes = n_nodes
        self.T = self.cfg.threads_per_node
        self.cluster = Cluster(n_nodes, backup_count=self.cfg.backup_count)
        self.node_members = list(self.cluster.member_ids)
        self.external = ExternalStore()
        self.metrics = Metrics()
        self.ctx = _JobCtx(
            self.external,
            self.cfg.guarantee == "exactly-once" and self.cfg.snapshot_interval_ms is not None,
            self.metrics.trigger_latencies,
        )
        self._imaps: dict[str, IMap] = {}
        # split each stream round-robin over its source instances once;
        # the split is reused verbatim on recovery so replay is exact
        n_inst = n_nodes * self.T
        missing = [s.stream for s in dag.sources.values() if s.stream not in sources]
        if missing:
            raise ValueError(f"no data for streams {missing}")
        self._source_split = {
            name: [sources[sv.stream][k::n_inst] for k in range(n_inst)]
            for name, sv in dag.sources.items()
        }
        self.t0 = float(
            min(
                (ev[0] for evs in sources.values() for ev in evs[:1]),
                default=0,
            )
        )
        self.now = self.t0
        # snapshot coordinator state
        self.next_sid = 1
        self.inflight_sid: int | None = None
        self._acks: set[tuple[str, int]] = set()
        self.last_complete_sid: int | None = None
        self._last_snap_ms = self.t0
        self._build()

    # -- topology helpers ----------------------------------------------

    def _n_inst(self, vname: str) -> int:
        if vname in self.dag.sources:
            return self.n_nodes * self.T
        return self.n_nodes * self.T if self.dag.vertices[vname].parallelism == "per_core" else 1

    def _loc(self, vname: str, k: int) -> tuple[int, int]:
        """(node_idx, thread_idx) of instance k."""
        if self._n_inst(vname) == 1:
            return 0, 0
        return k // self.T, k % self.T

    def _partition_owners(self, n_inst: int) -> list[int]:
        """The instance of an ``n_inst``-wide vertex that owns each IMDG
        partition: partitioned edges route by the grid's table (§4.1)."""
        n_parts = self.cluster.n_partitions
        if n_inst == 1:
            return [0] * n_parts
        table = self.cluster.table
        return [
            self.node_members.index(table.primary(pid)) * self.T + pid % self.T
            for pid in range(n_parts)
        ]

    def _imap(self, name: str) -> IMap:
        if name not in self._imaps:
            self._imaps[name] = IMap(name, self.cluster)
        return self._imaps[name]

    # -- build ----------------------------------------------------------

    def _build(self) -> None:
        """(Re)build tasklets, queues and workers for current membership."""
        cfg = self.cfg
        self.workers = [Worker(cfg.slice_ms) for _ in range(self.n_nodes * self.T)]
        self.source_tasklets: dict[tuple[str, int], SourceTasklet] = {}
        self.tasklets: dict[tuple[str, int], Tasklet] = {}
        self.procs: dict[tuple[str, int], object] = {}
        inbound: dict[tuple[str, int], list[InboundChannel]] = {
            (v, k): [] for v in self.dag.vertices for k in range(self._n_inst(v))
        }

        def mk_queue(src_loc, dst_loc):
            if src_loc[0] == dst_loc[0]:
                return SPSCQueue(cfg.queue_capacity)
            return NetworkChannel(latency_ms=cfg.net_latency_ms)

        # routes hold the partition owners, not the engine: a finished
        # job is freed without a cyclic collection
        n_parts = self.cluster.n_partitions
        owners = {n: self._partition_owners(n) for n in {1, self.n_nodes * self.T}}
        out_edges: dict[tuple[str, int], list[OutboundEdge]] = {}
        for vname in list(self.dag.sources) + list(self.dag.vertices):
            for e in self.dag.out_edges(vname):
                n_src, n_dst = self._n_inst(e.src), self._n_inst(e.dst)
                for k in range(n_src):
                    src_loc = self._loc(e.src, k)
                    if e.routing == "one_to_one":
                        targets = [k % n_dst]
                    elif e.routing == "to_one":
                        targets = [0]
                    else:  # partitioned
                        targets = list(range(n_dst))
                    queues = []
                    for ti, t in enumerate(targets):
                        q = mk_queue(src_loc, self._loc(e.dst, t))
                        queues.append(q)
                        inbound[(e.dst, t)].append(InboundChannel(q, ordinal=e.ordinal))
                    if e.routing == "partitioned":
                        route = lambda p, kf=e.key_fn, own=owners[n_dst], n=n_parts: own[
                            partition_id(kf(p), n)
                        ]
                    else:
                        route = None
                    out_edges.setdefault((e.src, k), []).append(
                        OutboundEdge(queues, route, name=f"{e.src}->{e.dst}")
                    )

        # source tasklets
        for sname, sv in self.dag.sources.items():
            for k in range(self._n_inst(sname)):
                st = SourceTasklet(
                    f"{sname}#{k}",
                    self._source_split[sname][k],
                    out_edges.get((sname, k), []),
                    ooo_lag_ms=sv.ooo_lag_ms,
                    wm_frame_ms=sv.wm_frame_ms,
                    cost_per_item_ms=cfg.cost_per_item_ms / 2,
                    on_snapshot=self._mk_snapshot_cb(sname, k),
                )
                self.source_tasklets[(sname, k)] = st
                ni, ti = self._loc(sname, k)
                self.workers[ni * self.T + ti].add(st)

        # processor tasklets
        for vname, v in self.dag.vertices.items():
            for k in range(self._n_inst(vname)):
                proc = v.make(self.ctx, k)
                self.procs[(vname, k)] = proc
                chans = inbound[(vname, k)]
                chans.sort(key=lambda c: c.ordinal)
                t = Tasklet(
                    f"{vname}#{k}",
                    proc,
                    chans,
                    out_edges.get((vname, k), []),
                    exactly_once=cfg.guarantee == "exactly-once",
                    inbox_limit=cfg.inbox_limit,
                    cost_per_item_ms=cfg.cost_per_item_ms,
                    on_snapshot=self._mk_snapshot_cb(vname, k),
                    metrics=self.metrics,
                )
                self.tasklets[(vname, k)] = t
                ni, ti = self._loc(vname, k)
                self.workers[ni * self.T + ti].add(t)

        # GC pause schedules, one per node
        if cfg.gc is not None:
            self._pauses = [
                PauseTracker(pause_schedule(MAX_SIM_MS, cfg.gc, seed=cfg.seed * 1000 + n))
                for n in range(self.n_nodes)
            ]
        else:
            self._pauses = None

    # -- snapshots (§4.4) ----------------------------------------------

    def _snap_name(self, sid: int, vname: str) -> str:
        return f"__snap.{sid}.{vname}"

    def _inst_map(self, sid: int) -> IMap:
        return self._imap(f"__snap.{sid}.__inst")

    def _mk_snapshot_cb(self, vname: str, k: int):
        """``cb(sid, owner)`` saves a source tasklet's or processor's
        keyed entries as one chunk ``k -> (ack order, entries)`` (a map
        is made only for some) and its instance state, then acks. It
        holds a weak proxy: tasklets must not keep the engine alive."""
        eng = weakref.proxy(self)

        def cb(sid: int, owner) -> None:
            keyed = owner.save_keyed()
            if keyed:
                eng._imap(eng._snap_name(sid, vname)).put(k, (len(eng._acks), keyed))
            eng._inst_map(sid).put((vname, k), owner.save_inst())
            eng._ack(sid, vname, k)

        return cb

    def _expected_acks(self) -> int:
        return sum(self._n_inst(v) for v in self.dag.sources) + sum(
            self._n_inst(v) for v in self.dag.vertices
        )

    def _ack(self, sid: int, vname: str, k: int) -> None:
        if sid != self.inflight_sid:
            return  # stale ack from a cancelled snapshot
        self._acks.add((vname, k))
        if len(self._acks) == self._expected_acks():
            self.last_complete_sid = sid
            self.inflight_sid = None
            self.metrics.snapshots_completed += 1
            self._commit_sinks(sid)
            self._destroy_snapshots_before(sid)

    def _commit_sinks(self, sid: int) -> None:
        """Phase 2 of 2PC: release prepared sink epochs (§4.5)."""
        im = self._inst_map(sid)
        for vname, v in self.dag.vertices.items():
            if not v.is_sink:
                continue
            for k in range(self._n_inst(vname)):
                items = im.get((vname, k))
                if items:
                    self.external.commit((sid, vname, k), items)

    def _destroy_snapshots_before(self, sid: int) -> None:
        """Drop the maps of every older snapshot, completed or cancelled:
        recovery reads only the last completed one."""
        for name in list(self._imaps):
            if int(name.split(".", 2)[1]) < sid:  # __snap.<sid>.<vertex>
                self._imaps.pop(name).destroy()

    def _snapshot_armed(self) -> bool:
        """True when only the interval stands between the coordinator
        and the next snapshot."""
        cfg = self.cfg
        if cfg.snapshot_interval_ms is None or cfg.guarantee == "none":
            return False
        if self.inflight_sid is not None:
            return False
        if all(s.done or s._finishing for s in self.source_tasklets.values()):
            return False  # job draining; no further snapshots
        # a hash-join build (priority edge) still in progress: like Jet,
        # defer snapshots until priority edges are drained (a barrier on
        # a priority input would deadlock alignment)
        return all(p.wanted_ordinal() is None for p in self.procs.values())

    def _maybe_trigger_snapshot(self) -> None:
        interval = self.cfg.snapshot_interval_ms
        if interval is None or self.now - self._last_snap_ms < interval:
            return
        if not self._snapshot_armed():
            return
        sid = self.next_sid
        self.next_sid += 1
        self.inflight_sid = sid
        self._acks = set()
        self._last_snap_ms = self.now
        for (sname, k), st in self.source_tasklets.items():
            if st.done or st._finishing:
                # a completed (bounded) source cannot emit a barrier; its
                # consumers drain its channels to EOS before their own
                # alignment completes, so acking its final offset now is
                # exact — nothing of it is in flight past the barrier
                st.on_snapshot(sid, st)
            else:
                st.request_snapshot(sid)

    # -- failure & recovery (§4.4, Fig 6) -------------------------------

    def fail_node(self, node_idx: int) -> None:
        """Crash a member and run the full recovery protocol."""
        member = self.node_members[node_idx]
        self.cluster.fail_node(member)
        self.node_members[node_idx] = self.cluster.add_node()
        self.metrics.recoveries += 1
        self.inflight_sid = None
        self._acks = set()
        self._fold_sink_latencies()  # the rebuild discards the old sinks
        self._build()
        sid = self.last_complete_sid
        if sid is None:
            self._last_snap_ms = self.now
            return  # cold restart from offset 0 with empty state
        # keyed state: merge partials per state key, re-route every entry
        # by its record key through the current partition table (the
        # same in every process), restore per instance
        n_parts = self.cluster.n_partitions
        for vname in self.dag.vertices:
            snap = self._imaps.get(self._snap_name(sid, vname))
            if snap is None:
                continue  # no instance held keyed state
            proc = self.procs[(vname, 0)]
            # the chunks' entries in ack order, stable-sorted by the
            # partition of (instance, state key): the order a scan of
            # one put per entry gives, since a partition's fragment
            # keeps its put order (replicas are copied whole)
            chunks = sorted(snap.entry_set(), key=lambda e: e[1][0])
            entries = [((k, key), val) for k, (_, keyed) in chunks for key, val in keyed.items()]
            entries.sort(key=lambda e: partition_id(e[0], n_parts))
            merged: dict = {}
            for (_inst, key), val in entries:
                merged[key] = proc.merge(merged[key], val) if key in merged else val
            owners = self._partition_owners(self._n_inst(vname))
            per_inst: dict[int, dict] = {}
            for key, val in merged.items():
                inst = owners[partition_id(proc.record_key(key), n_parts)]
                per_inst.setdefault(inst, {})[key] = val
            for inst, entries in per_inst.items():
                self.procs[(vname, inst)].restore_keyed(entries)
        # instance state: source offsets, combiner emit cursors, join build
        # flags; sinks start an empty epoch and commit the sealed one below
        for key, st in self._inst_map(sid).entry_set():
            (self.source_tasklets.get(key) or self.procs[key]).restore_inst(st)
        self._commit_sinks(sid)  # idempotent re-commit after recovery
        self._last_snap_ms = self.now

    # -- main loop ------------------------------------------------------

    def _fold_sink_latencies(self) -> None:
        for (vname, _k), proc in self.procs.items():
            if self.dag.vertices[vname].is_sink:
                self.metrics.event_latencies.extend(proc.latencies)

    def _done(self) -> bool:
        return all(
            self.tasklets[(vname, k)].done
            for vname, v in self.dag.vertices.items()
            if v.is_sink
            for k in range(self._n_inst(vname))
        )

    def _running(self) -> list[Worker]:
        """Workers whose node is not in a GC pause at ``now``."""
        if self._pauses is None:
            return self.workers
        paused = [p.in_pause(self.now - self.t0) for p in self._pauses]
        return [w for i, w in enumerate(self.workers) if not paused[i // self.T]]

    def _tick(self) -> None:
        self.now += self.cfg.slice_ms
        if self.now - self.t0 > MAX_SIM_MS:
            raise RuntimeError("simulation horizon exceeded — livelock?")

    def _skip_idle_steps(self, running: list[Worker], schedule: list) -> None:
        """After a step in which no worker made progress, jump over the
        steps that provably do nothing.

        The running workers' wake cells tell when a tasklet could next
        have work; if one has work now, no step is skipped. Otherwise
        each following step is skipped while its whole slice ends before
        the earliest source arrival and network delivery, no credit
        grant falls due in it, and the coordinator would neither inject
        a failure, start a snapshot nor see a GC pause begin or end. The
        clock still advances by repeated ``+= slice_ms``, so its values
        match a run that executes every step, and each running worker is
        owed the idle pass each skipped step replaces.
        """
        due = min((w.cell.due for w in running), default=inf)
        if due == -inf:
            return
        ack_from = min((w.cell.ack for w in running), default=inf)
        cfg = self.cfg
        armed = self._snapshot_armed()
        skipped = 0
        while True:
            end = self.now + cfg.slice_ms
            # the predicates the runs and the coordinator use, at the
            # latest time a run in this step could see
            if end >= due or not end - ack_from < ACK_INTERVAL_MS:
                break
            if schedule and self.now >= self.t0 + schedule[0][0]:
                break
            if armed and not self.now - self._last_snap_ms < cfg.snapshot_interval_ms:
                break
            if self._pauses is not None and self._running() != running:
                break
            self._tick()
            skipped += 1
        if skipped:
            for w in running:
                w.owed += skipped

    def run(self, *, fail_at: list[tuple[float, int]] | None = None) -> Metrics:
        """Advance simulated time until every sink completed.

        ``fail_at`` is a list of ``(sim_time_ms, node_idx)`` crash
        injections, applied once each.
        """
        schedule = sorted(fail_at or [])
        while not self._done():
            while schedule and self.now >= self.t0 + schedule[0][0]:
                self.fail_node(schedule.pop(0)[1])
            self._maybe_trigger_snapshot()
            running = self._running()
            now, end = self.now, self.now + self.cfg.slice_ms
            for worker in running:
                cell = worker.cell
                if end < cell.due and end - cell.ack < ACK_INTERVAL_MS:
                    # no tasklet can have work at any run time of the slice
                    worker.owed += 1
                    worker.progressed = False
                else:
                    worker.run_slice(now)
            self._tick()
            if not any(w.progressed for w in running):
                self._skip_idle_steps(running, schedule)
        self._fold_sink_latencies()
        return self.metrics

    def results(self) -> list:
        """Externally visible output rows (committed, for transactional)."""
        return list(self.external.rows)
