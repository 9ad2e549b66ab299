"""Fluid-mode performance model: the figure-scale twin of the engine.

The exact-mode engine (``engine.py``) executes real events and is
validated against DuckDB, but a 240-core, 1 M ev/s, 240 s run is far
outside what per-event Python simulation can do. ``fluid`` keeps the
same *mechanisms* — cooperative round-robin scheduling, bounded queues
with credit-based network flow control, concurrent-GC pauses, aligned
snapshot stalls, two-stage windowing — but represents load as rates and
backlogs, sampling one latency per window trigger (or per tracked
event) exactly as the paper's §7.1 methodology counts samples.

Latency components per sample (all in ms):

* ``hop``        watermark/event propagation through the DAG: a few
                 cooperative-quantum hops (source → accumulate →
                 combine), exponential per-hop;
* ``sched``      wait for the processing tasklet's turn in its thread's
                 round-robin loop (multiplied under multi-tenancy; far
                 larger and heavy-tailed under the preemptive
                 operator-per-thread baseline);
* ``emit``       time to emit the window's per-key results;
* ``queue``      utilisation-driven backlog drain (grows as ρ→1);
* ``gc``         overlap with a pause from the node's GC schedule, plus
                 its ρ-amplified drain;
* ``credit``     distributed-edge receive-window stalls: as ρ grows the
                 producer increasingly runs out of credits and waits a
                 fraction of the 100 ms ack interval (§3.3);
* ``snapshot``   exactly-once barrier alignment + state save + backup
                 replication stall, phase-locked to the snapshot
                 interval (§7.6's sawtooth).

Constants are calibrated in ``tests/test_fluid_calibration.py`` against
the paper's headline numbers; the *model shape* (which effects exist
and how they scale) follows the paper's architecture directly.
"""
from dataclasses import dataclass, replace

import numpy as np

from .gc_model import G1_TUNED, GcConfig, pause_schedule
from .queues import ACK_INTERVAL_MS

#: Per-item processing cost in µs per query (calibrated so a windowed
#: aggregate saturates a core at ~2 M ev/s — §4.6, Fig 7).
QUERY_COST_US = {"q1": 0.33, "q2": 0.30, "q5": 0.46, "q8": 0.52, "q13": 0.40}

#: Queries whose §7.1 latency clock ticks per *window trigger*.
WINDOWED = {"q5", "q8"}

#: Result-emission cost per key-result, µs.
EMIT_COST_US = 0.5


@dataclass(frozen=True)
class FluidSpec:
    """One experiment configuration (one row of a sweep)."""

    query: str = "q5"
    n_nodes: int = 1
    cores_per_node: int = 12
    rate: float = 1_000_000.0  # total input events/s
    size_ms: int = 10_000
    slide_ms: int = 10
    n_keys: int = 10_000
    guarantee: str = "none"  # none | exactly-once
    snapshot_interval_ms: float | None = None
    scheduler: str = "cooperative"  # cooperative | preemptive
    gc: GcConfig = G1_TUNED
    n_jobs: int = 1
    duration_s: float = 60.0
    seed: int = 7


@dataclass
class FluidResult:
    """Latency samples plus derived capacity for one spec."""

    spec: FluidSpec
    latencies_ms: np.ndarray
    capacity_per_core: float  # sustainable events/s/core
    utilization: float

    def percentile(self, p: float) -> float:
        return float(np.percentile(self.latencies_ms, p))

    def summary(self) -> dict:
        return {
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "p99.9": self.percentile(99.9),
            "p99.99": self.percentile(99.99),
            "utilization": self.utilization,
        }


def _cores(spec: FluidSpec) -> int:
    return spec.n_nodes * spec.cores_per_node


def capacity_per_core(spec: FluidSpec) -> float:
    """Sustainable events/s per core for this query and geometry.

    Per-event cost plus the per-slide window-emission work (which is
    why a 10 ms slide saturates earlier than a 500 ms slide — compare
    Fig 7 vs Fig 10) plus a small distributed-exchange overhead that is
    *constant per key* thanks to the two-stage combiners (§3.1, Fig 10's
    near-linear scaling).
    """
    c_us = QUERY_COST_US[spec.query]
    emit_frac = 0.0
    if spec.query in WINDOWED:
        keys_per_core = spec.n_keys / _cores(spec)
        emits_per_s = keys_per_core * (1000.0 / spec.slide_ms)
        emit_frac = emits_per_s * EMIT_COST_US * 1e-6
        # pane maintenance + partial flush per slide (bounded by keys)
        emit_frac += keys_per_core * (1000.0 / spec.slide_ms) * 0.15e-6
    remote_frac = 0.02 * (spec.n_nodes - 1) / max(spec.n_nodes, 1)
    eff = max(0.05, 1.0 - emit_frac - remote_frac)
    return eff / (c_us * 1e-6)


def utilization(spec: FluidSpec) -> float:
    rate_per_core = spec.rate / _cores(spec)
    return rate_per_core / capacity_per_core(spec)


def max_throughput(spec: FluidSpec, *, target_util: float = 0.91) -> float:
    """Max total ingest rate sustaining ``target_util`` (Fig 10 metric)."""
    return target_util * capacity_per_core(spec) * _cores(spec)


def _gc_extra(trigger_ms: np.ndarray, spec: FluidSpec, rho: float, rng) -> np.ndarray:
    """Latency added by GC pauses: in-pause remainder plus ρ-amplified
    backlog drain after the pause.

    Pause frequency scales with utilisation (allocation rate): a nearly
    idle core triggers young collections orders of magnitude less often
    — which is why simple queries at big DOP show sub-ms p99.99 in
    Figs 11/12 while a saturated single node (Fig 7) eats full pauses.
    """
    gc_cfg = replace(spec.gc, interval_ms=spec.gc.interval_ms / max(rho, 0.02))
    horizon = trigger_ms.max() + 1 if len(trigger_ms) else 0
    # each sample is affected by the pause schedule of the node that
    # owns its key partition
    node_of = rng.integers(0, spec.n_nodes, len(trigger_ms))
    extra = np.zeros(len(trigger_ms))
    amplify = min(rho / max(1e-6, 1.0 - rho), 50.0)
    for n in range(spec.n_nodes):
        sched = pause_schedule(horizon, gc_cfg, seed=spec.seed * 977 + n)
        mask = node_of == n
        t = trigger_ms[mask]
        e = np.zeros(len(t))
        for start, dur in sched:
            in_pause = (t >= start) & (t < start + dur)
            e[in_pause] = np.maximum(e[in_pause], (start + dur) - t[in_pause])
            # drain tail: backlog accumulated during the pause clears at
            # the residual service rate
            drain_len = dur * amplify
            in_drain = (t >= start + dur) & (t < start + dur + drain_len)
            if drain_len > 0:
                frac = 1.0 - (t[in_drain] - start - dur) / drain_len
                e[in_drain] = np.maximum(e[in_drain], dur * np.minimum(amplify, 2.5) * frac)
        extra[mask] = e
    return extra


def _credit_stalls(n: int, spec: FluidSpec, rho: float, rng) -> np.ndarray:
    """Receive-window stalls on distributed edges (§3.3).

    Credits are granted every 100 ms sized to ~300 ms of consumption;
    once utilisation approaches 1 the sender drains its window before
    the next ack and waits. Probability and severity both rise steeply
    with ρ. Local-only jobs (1 node) see a milder version from bounded
    in-memory queues filling.
    """
    if rho <= 0.5:
        return np.zeros(n)
    p_stall = min(0.25, 0.002 * np.exp(5.5 * (rho - 0.5)))
    burst_factor = 1.0
    if spec.query in WINDOWED:
        # stalls are driven by the per-trigger emission burst: a 10 ms
        # slide re-bursts the full key set 100×/s and drains credits, a
        # 500 ms slide amortises the same keys over 50× longer (Fig 10
        # keeps p99.99 low at rates that melt Fig 7)
        burst = (spec.n_keys / _cores(spec)) * EMIT_COST_US * 1e-3 / spec.slide_ms
        burst_factor = 0.05 + 0.95 * min(1.0, burst * 30.0)
    p_stall *= burst_factor
    severity = min(1.0, (rho - 0.5) / 0.5) ** 2 * burst_factor
    scale = ACK_INTERVAL_MS if spec.n_nodes > 1 else ACK_INTERVAL_MS * 0.9
    hit = rng.random(n) < p_stall
    out = np.zeros(n)
    out[hit] = rng.random(hit.sum()) * scale * severity
    return out


def _snapshot_stalls(trigger_ms: np.ndarray, spec: FluidSpec, rho: float) -> np.ndarray:
    """Exactly-once snapshot sawtooth (§7.6, Fig 13).

    Every interval, sources emit barriers; alignment blocks channels
    while state (≈ live panes × keys) is serialized into the IMDG and
    replicated to the backup member. Triggers landing early in the
    stall window inherit most of it; the effect then decays as the
    backlog drains.
    """
    if spec.guarantee != "exactly-once" or not spec.snapshot_interval_ms:
        return np.zeros(len(trigger_ms))
    entries = spec.n_keys * min(64.0, spec.size_ms / spec.slide_ms)
    state_ms = entries * 4.5e-4  # serialize + backup-replicate per entry
    align_ms = 12.0 + 2.0 * spec.n_nodes
    stall = min(align_ms + state_ms + 40.0 * rho, 0.8 * spec.snapshot_interval_ms)
    phase = np.mod(trigger_ms, spec.snapshot_interval_ms)
    return np.maximum(0.0, stall - phase)


def simulate(spec: FluidSpec) -> FluidResult:
    """Produce the latency-sample distribution for one configuration."""
    rng = np.random.default_rng(spec.seed)
    rho = utilization(spec)
    horizon_ms = spec.duration_s * 1000.0

    if spec.query in WINDOWED:
        n_triggers = max(1, int(horizon_ms / spec.slide_ms))
        trigger_ms = np.arange(n_triggers) * float(spec.slide_ms)
        samples = trigger_ms
        # emitting one window's results for the keys on one instance
        keys_per_inst = spec.n_keys / _cores(spec)
        emit = keys_per_inst * EMIT_COST_US * 1e-3 * np.ones(n_triggers)
    else:
        n_ev = min(200_000, max(1, int(spec.rate * spec.duration_s / 50)))
        samples = np.sort(rng.random(n_ev)) * horizon_ms
        emit = np.zeros(len(samples))

    n = len(samples)
    # round length of one cooperative thread: tasklets_per_thread runs
    # of ~run_overhead each; multi-tenancy multiplies tasklet count (§7.7)
    verts = {"q1": 3, "q2": 3, "q5": 5, "q8": 5, "q13": 5}[spec.query]
    if spec.scheduler == "cooperative":
        round_ms = verts * spec.n_jobs * 0.016 * (1.0 + 2.0 * rho)
        hops = 3 if spec.query in WINDOWED else 2
        sched = rng.random((n, hops)).sum(axis=1) * round_ms
    else:
        # operator-per-thread baseline: every hop risks an OS context
        # switch / timeslice wait; heavy-tailed
        timeslice = 4.0
        hops = 3 if spec.query in WINDOWED else 2
        runnable = verts * spec.n_jobs * spec.cores_per_node / 4
        sched = (
            rng.random((n, hops)).sum(axis=1)
            * timeslice
            * np.maximum(1.0, np.log2(max(2.0, runnable)))
        )
        sched += (rng.random(n) < 0.01) * rng.exponential(30.0, n)

    windowed = spec.query in WINDOWED
    partitioned = spec.query in ("q5", "q8", "q13")  # has a distributed edge
    hop = rng.exponential(0.12 if windowed else 0.06, n) * (3 if windowed else 2)
    if spec.n_nodes > 1 and partitioned:
        hop += rng.exponential(0.25, n)  # one distributed exchange hop
    if windowed:
        # a window triggers only once the *minimum* watermark over every
        # upstream instance passes its end — the straggler instance sets
        # the pace, and the tail of a max over instances grows with DOP
        hop += rng.exponential(0.8, (n, max(2, spec.n_nodes))).max(axis=1)
    if spec.n_jobs > 1:
        # convoy effect: occasionally every tasklet of a tenant becomes
        # runnable at once and the round-robin loop serialises them
        convoy = rng.random(n) < 0.005
        hop += convoy * rng.random(n) * spec.n_jobs * 2.2

    # utilisation-driven standing backlog
    queue = rng.exponential(0.12, n) * min(rho / max(1e-6, 1.0 - rho), 400.0)

    gc = _gc_extra(samples, spec, rho, rng)
    credit = _credit_stalls(n, spec, rho, rng)
    snap = _snapshot_stalls(samples, spec, rho)

    lat = 0.15 + hop + sched + emit + queue + gc + credit + snap
    return FluidResult(
        spec=spec,
        latencies_ms=lat,
        capacity_per_core=capacity_per_core(spec),
        utilization=rho,
    )
