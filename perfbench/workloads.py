"""The benchmark's three workloads.

Each workload builds its input from the seed, runs a time-bounded loop
of identical *operations* (an engine job, or a streaming query of
several micro-batches), checks every operation's output against an
oracle, and returns end-to-end metrics computed from untraced
operations and, with a tracer, per-layer metrics computed from traced
ones. The traced run of spark-stream-q5 also times one fluid sweep, so
that the figure path is measured too. See ``perfbench/README.md`` for
why each workload exists and which layer it stresses.
"""
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import calibrate
import spark_session
import tracing

clock = time.perf_counter


@dataclass
class Outcome:
    """What a workload reports back to ``run.py``."""

    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: ``(label, value)`` lines printed with the result (shape, samples)
    info: list = field(default_factory=list)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _op_loop(seconds: float, tracer, run_op, cal) -> list[dict]:
    """Repeat ``run_op(index, traced) -> dict`` until the operations'
    ``measured_s`` add up to ``seconds``, and at least twice. With a
    calibration, a kernel sample follows every operation, outside the
    measurement.

    With a tracer, the first operation runs untraced (the reference for
    the tracing overhead) and the wrappers go in before the second. An
    operation that raises is recorded as ``{"error": ...}`` and ends the
    loop: it counts as failed.
    """
    ops: list[dict] = []
    measured = 0.0
    while measured < seconds or len(ops) < 2:
        traced = tracer is not None and len(ops) >= 1
        if traced:
            if len(ops) == 1:
                tracing.install(tracer)
            tracer.reset()
        try:
            op = run_op(len(ops), traced)
        except Exception as e:
            traceback.print_exc()
            ops.append({"error": repr(e), "traced": traced})
            break
        op["traced"] = traced
        if not ops:
            # the first operation's peak: later ones grow it only by
            # allocator slack, and by how many of them fit in the run
            op["peak_rss_mb"] = _peak_rss_mb()
        ops.append(op)
        measured += op["measured_s"]
        if cal is not None:
            cal.sample()
    return ops


def _summarise(out: Outcome, ops, rate, batch_ms, setup_s) -> None:
    """Fill end-to-end metrics from untraced operations and per-layer
    metrics (medians over operations, wall-clock) from traced ones.

    ``rate(op)`` is an operation's items per wall second and
    ``batch_ms(op)`` its batch times. End-to-end times are calibrated:
    multiplied by the operation's ``scale``, the host-speed factor of
    the process that ran it (see ``calibrate.py``; 1 where none).
    """
    ok = [o for o in ops if "error" not in o]
    plain = [o for o in ok if not o["traced"]]
    traced = [o for o in ok if o["traced"]]
    for o in ops:
        if "error" in o:
            out.info.append(("error", o["error"]))
    if plain:
        def scale(o):
            return o.get("scale", 1.0)

        out.end_to_end = {
            "items_per_s": statistics.median(rate(o) / scale(o) for o in plain),
            "batch_p50_ms": statistics.median(
                ms * scale(o) for o in plain for ms in batch_ms(o)
            ),
            "peak_rss_mb": statistics.median(
                [o["peak_rss_mb"] for o in plain if "peak_rss_mb" in o] or [0.0]
            ),
            "setup_s": setup_s,
        }
        if any(scale(o) != 1.0 for o in plain):
            raw = {
                "items_per_s": statistics.median(rate(o) for o in plain),
                "batch_p50_ms": statistics.median(ms for o in plain for ms in batch_ms(o)),
            }
            out.info.append(("wall_clock", ", ".join(f"{k} {v:.6g}" for k, v in raw.items())))
    if traced:
        layers = [o["layer"] for o in traced]
        out.per_layer = {
            k: statistics.median(d[k] for d in layers) for k in layers[0]
        }
        out.per_layer["trace.items_per_s"] = statistics.median(rate(o) for o in traced)
        if plain:
            out.per_layer["trace.overhead_ratio"] = (
                statistics.median(rate(o) for o in plain) / out.per_layer["trace.items_per_s"]
            )
    out.info.append(("operations", f"{len(plain)} untraced, {len(traced)} traced"))


def _duck_rows(sql: str, **tables) -> Counter:
    import duckdb

    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        return Counter(tuple(r) for r in con.execute(sql).fetchall())
    finally:
        con.close()


def _span(tracer, traced: bool, name: str, **attrs):
    return tracer.span(name, **attrs) if traced else contextlib.nullcontext()


# =========================================================================
# exact engine
# =========================================================================

#: Full-size and tiny (self-check) shapes of the two engine workloads.
ENGINE_SHAPES = {
    "engine-q5-sliding": {
        "gen": {"rate": 8_000, "n_keys": 300},
        "duration_s": {"full": 1.0, "tiny": 0.2},
        "streams": ("bids",),
        "window": {"size_ms": 1_000, "slide_ms": 100},
        "n_nodes": 2,
        "cfg": {"threads_per_node": 2, "guarantee": "none"},
        "crash": False,
        "cols": ("window_start", "auction", "n_bids"),
    },
    "engine-q8-xo-crash": {
        # persons + auctions are 4/50 of the generated mix: 3.2k ev/s
        "gen": {"rate": 40_000, "n_keys": 1_000, "ooo_max_delay_ms": 50},
        "duration_s": {"full": 4.0, "tiny": 1.0},
        "streams": ("persons", "auctions"),
        "window": {"size_ms": 500, "ooo_lag_ms": 50},
        "n_nodes": 3,
        "cfg": {
            "threads_per_node": 2,
            "guarantee": "exactly-once",
            "snapshot_interval_ms": 100,
        },
        "crash": True,
        "cols": ("id", "name", "window_start"),
    },
}


def _engine_setup(name: str, seed: int, duration_s: float):
    """Data generation and adaptation, pipeline compile and engine
    construction: everything ``setup_s`` times for an engine job."""
    from repro.core.engine import JetEngine, SimConfig
    from repro.nexmark import generator
    from repro.nexmark import queries_jet as qj

    shape = ENGINE_SHAPES[name]
    data = generator.generate(seed=seed, duration_s=duration_s, **shape["gen"])
    adapt = {"bids": qj.bid_events, "persons": qj.person_events, "auctions": qj.auction_events}
    sources = {s: adapt[s](data) for s in shape["streams"]}
    if name == "engine-q5-sliding":
        pipeline = qj.q5_pipeline(**shape["window"])
    else:
        pipeline = qj.q8_pipeline(**shape["window"])
    eng = JetEngine(
        pipeline.compile(), sources, n_nodes=shape["n_nodes"], cfg=SimConfig(**shape["cfg"])
    )
    n_events = sum(len(v) for v in sources.values())
    return data, eng, n_events


def _engine_oracle(name: str, data) -> Counter:
    from repro.nexmark.queries_batch import q5_sql, q8_sql

    w = ENGINE_SHAPES[name]["window"]
    if name == "engine-q5-sliding":
        return _duck_rows(q5_sql(size_ms=w["size_ms"], slide_ms=w["slide_ms"]), bids=data.bids)
    return _duck_rows(
        q8_sql(size_ms=w["size_ms"]), persons=data.persons, auctions=data.auctions
    )


#: Fresh processes an untraced engine run is split across, one after
#: another. The same jobs run up to 20% faster in one process than in
#: the next, and the calibration kernel differs as much, independently,
#: so a run pools the jobs and the kernel samples of several processes.
#: Each process makes its input from its own seed, derived from the
#: run's: the cost per event differs by up to 10% between one seed's
#: input and another's, and a run pools several.
ENGINE_PROCESSES = 3


def run_engine(name, seed, seconds, *, size, tracer=None, corrupt=False) -> Outcome:
    seeds = [seed * ENGINE_PROCESSES + i for i in range(ENGINE_PROCESSES)]
    if tracer is None:
        parts = [
            _engine_part_in_child(name, s, seconds / ENGINE_PROCESSES, size, corrupt)
            for s in seeds
        ]
    else:
        seeds = seeds[:1]
        parts = [engine_part(name, seeds[0], seconds, size=size, tracer=tracer, corrupt=corrupt)]
    ops = [o for p in parts for o in p["ops"]]
    kernel = [k for p in parts for k in p["kernel"]]
    scale = calibrate.scale(kernel) if kernel else 1.0
    for o in ops:
        o["scale"] = scale

    shape = ENGINE_SHAPES[name]
    ok = [o for o in ops if "error" not in o]
    out = Outcome(attempted=len(ops), failed=sum(1 for o in ops if not o.get("ok")))
    _summarise(
        out,
        ops,
        rate=lambda o: o["n_events"] / o["wall_s"],
        batch_ms=lambda o: [o["wall_s"] * 1000.0],
        setup_s=statistics.median(o["setup_s"] * o["scale"] for o in ok) if ok else 0.0,
    )
    if tracer is not None and out.per_layer:
        out.per_layer["host.calibration_s"] = statistics.fmean(kernel)
    out.info += [
        ("shape", f"{shape['gen']} x {shape['duration_s'][size]}s simulated, "
                  f"streams {shape['streams']}, window {shape['window']}, "
                  f"{shape['n_nodes']} nodes, {shape['cfg']}"
                  + (", node 1 crashes at mid-run" if shape["crash"] else "")),
        ("input_seeds", ", ".join(map(str, seeds))),
        ("calibration", f"kernel mean {statistics.fmean(kernel) if kernel else 0:.4f} s over "
                        f"{len(kernel)} samples in {len(parts)} processes, scale {scale:.4f}"),
        ("events_per_job", ok[0]["n_events"] if ok else 0),
        ("output_rows_per_job", ok[0]["rows_out"] if ok else 0),
    ]
    return out


def _engine_part_in_child(name, seed, seconds, size, corrupt) -> dict:
    """:func:`engine_part` in a fresh process (``run.py --part``)."""
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
           "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", "0", "--size", size, "--part"] + (["--corrupt"] if corrupt else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired as e:
        error = f"engine process timed out: {e}"
    else:
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            sys.stderr.write(proc.stderr)
            error = f"engine process exited {proc.returncode} without a result"
    return {"ops": [{"error": error, "traced": False}], "kernel": []}


def engine_part(name, seed, seconds, *, size, tracer=None, corrupt=False) -> dict:
    """Warm up, run engine jobs for ``seconds`` in this process, and
    check each job against the oracle. Returns (JSON-ready) the jobs,
    with raw times and ``ok``, and the kernel samples taken between
    them (see ``calibrate.py``)."""
    cal = calibrate.Calibration()
    shape = ENGINE_SHAPES[name]
    duration_s = shape["duration_s"][size]
    cols = shape["cols"]
    fail_at = [(duration_s * 1000 / 2, 1)] if shape["crash"] else None

    # warm-up: a short job so imports and lazy set-up are not timed
    _, eng, _ = _engine_setup(name, seed, 0.1)
    eng.run(fail_at=[(50.0, 1)] if fail_at else None)

    data = None

    def job(index, traced):
        nonlocal data
        with _span(tracer, traced, "engine.job", index=index):
            t0 = clock()
            data, eng, n_events = _engine_setup(name, seed, duration_s)
            t1 = clock()
            eng.run(fail_at=fail_at)
            t2 = clock()
        rows = Counter(tuple(r[c] for c in cols) for r in eng.results())
        if corrupt:
            rows[next(iter(rows))] += 1  # a duplicated output row
        op = {"setup_s": t1 - t0, "wall_s": t2 - t1, "measured_s": t2 - t0,
              "n_events": n_events, "rows": rows}
        if traced:
            op["layer"] = tracing.engine_job_metrics(tracer, eng)
        return op

    ops = _op_loop(seconds, tracer, job, cal)

    # every job sees the same input; its output multiset must equal the
    # oracle's rows, each once (the oracle SQL is DISTINCT), so a
    # duplicated row fails the job (exactly-once)
    want = _engine_oracle(name, data) if data is not None else Counter()
    for o in ops:
        rows = o.pop("rows", None)
        o["ok"] = rows == want
        o["rows_out"] = sum(rows.values()) if rows else 0
    return {"ops": ops, "kernel": cal.samples}


# =========================================================================
# Spark Structured Streaming
# =========================================================================

STREAM_SHAPE = {
    "gen": {"rate": 20_000, "n_keys": 1_000},
    "duration_s": {"full": 2.0, "tiny": 0.3},
    "chunks": {"full": 8, "tiny": 2},
    "window": {"size_ms": 10_000, "slide_ms": 1_000, "watermark_ms": 0},
}

#: Untimed full-size queries before the measured ones.
STREAM_WARMUP_QUERIES = 2

#: Sliding-window counts per (window, auction), the DuckDB twin of
#: ``q5_counts_stream`` (every window of ``size`` ms containing a bid).
_SLIDING_COUNTS_SQL = """
SELECT (b.ts_ms // {slide}) * {slide} - i.generate_series * {slide} AS window_start,
       b.auction, COUNT(*) AS n_bids
FROM bids b CROSS JOIN generate_series(0, {n} - 1) i
WHERE b.ts_ms >= (b.ts_ms // {slide}) * {slide} - i.generate_series * {slide}
  AND b.ts_ms <  (b.ts_ms // {slide}) * {slide} - i.generate_series * {slide} + {size}
GROUP BY 1, 2
"""


def _stream_input(seed, size, out_dir):
    from repro.nexmark import generator
    from repro.sinks import replayable

    shape = STREAM_SHAPE
    data = generator.generate(seed=seed, duration_s=shape["duration_s"][size], **shape["gen"])
    bids = replayable.with_flush_sentinel(data.bids, advance_ms=6 * shape["window"]["size_ms"])
    replayable.write_chunks(bids, out_dir, n_chunks=shape["chunks"][size])
    return data


def _stream_query(spark, input_dir, root):
    """One streaming query over every chunk through the 2PC sink;
    returns (wall_s, progress of the batches that read input, sink)."""
    from repro.nexmark import queries_stream as qs
    from repro.nexmark.schema import BID_SCHEMA
    from repro.sinks.exactly_once import TwoPhaseCommitSink

    sink = TwoPhaseCommitSink(os.path.join(root, "sink"))
    bids = qs.read_stream(spark, input_dir, BID_SCHEMA)
    sdf = qs.q5_counts_stream(bids, **STREAM_SHAPE["window"])
    t0 = clock()
    q = (
        sdf.writeStream.foreachBatch(sink)
        .option("checkpointLocation", os.path.join(root, "ckpt"))
        .outputMode("append")
        .start()
    )
    try:
        q.processAllAvailable()
        wall = clock() - t0
        progress = [p for p in q.recentProgress if p.get("numInputRows", 0) > 0]
    finally:
        q.stop()
    return wall, progress, sink


def _progress_layer(progress: list) -> dict:
    def med(key):
        return statistics.median(p["durationMs"].get(key, 0) for p in progress)

    def state_max(key):
        return max(sum(op.get(key, 0) for op in p.get("stateOperators", [])) for p in progress)

    trig = [p["durationMs"]["triggerExecution"] for p in progress]
    return {
        "stream.batches": len(progress),
        "stream.batch_p90_ms": statistics.quantiles(trig, n=10)[-1],
        "stream.add_batch_ms": med("addBatch"),
        "stream.get_batch_ms": med("getBatch"),
        "stream.query_planning_ms": med("queryPlanning"),
        "stream.wal_commit_ms": med("walCommit"),
        "stream.state_rows": state_max("numRowsTotal"),
        "stream.state_memory_bytes": state_max("memoryUsedBytes"),
    }


def _iso_to_s(ts: str) -> float:
    from datetime import datetime

    return datetime.fromisoformat(ts.replace("Z", "+00:00")).timestamp()


def run_stream(seed, seconds, *, size, work_dir, src_dir, tracer=None, corrupt=False):
    t0 = clock()
    spark = spark_session.start(work_dir, src_dir)
    session_s = clock() - t0
    try:
        return _run_stream(spark, session_s, seed, seconds, size, work_dir, tracer, corrupt)
    finally:
        spark_session.stop(spark)


def _run_stream(spark, session_s, seed, seconds, size, work_dir, tracer, corrupt):
    shape = STREAM_SHAPE
    write_s = []
    for rep in range(3):
        t0 = clock()
        data = _stream_input(seed, size, os.path.join(work_dir, f"in-{rep}"))
        write_s.append(clock() - t0)
    input_dir = os.path.join(work_dir, "in-0")
    # warm-up, not timed: the first queries of a session run slower by
    # up to half while the JVM compiles Spark's code paths
    for i in range(STREAM_WARMUP_QUERIES):
        _stream_query(spark, input_dir, os.path.join(work_dir, f"warmup-{i}"))

    setup_layer = {}

    def query(index, traced):
        if traced and not setup_layer:
            # one traced pass of the set-up, for the generation and chunk layers
            _stream_input(seed, size, os.path.join(work_dir, "in-traced"))
            setup_layer["gen.generate_s"] = tracer.total_s["gen.generate"]
            setup_layer["replayable.write_chunks_s"] = tracer.total_s["replayable.write_chunks"]
            tracer.reset()
        with _span(tracer, traced, "stream.query", index=index):
            wall, progress, sink = _stream_query(
                spark, input_dir, os.path.join(work_dir, f"query-{index}")
            )
            for p in progress if traced else ():
                start = tracer.from_unix(_iso_to_s(p["timestamp"]))
                end = start + p["durationMs"]["triggerExecution"] / 1000.0
                tracer.add_span("stream.batch", start, end, batch_id=p["batchId"])
        op = {"wall_s": wall, "measured_s": wall, "progress": progress, "sink": sink,
              "rows_in": sum(p["numInputRows"] for p in progress)}
        if traced:
            op["layer"] = {
                **_progress_layer(progress),
                **setup_layer,
                "sink2pc.calls": tracer.calls["sink2pc"],
                "sink2pc.self_s": tracer.self_s["sink2pc"],
                "sink2pc.replays_skipped": tracer.counts["sink2pc.replays_skipped"],
            }
        return op

    ops = _op_loop(seconds, tracer, query, None)

    # oracle: committed rows of every query equal DuckDB's sliding
    # counts, each exactly once; a mismatch fails all of its batches
    w = shape["window"]
    want = _duck_rows(
        _SLIDING_COUNTS_SQL.format(
            slide=w["slide_ms"], size=w["size_ms"], n=w["size_ms"] // w["slide_ms"]
        ),
        bids=data.bids,
    )
    out = Outcome()
    n_chunks = shape["chunks"][size]
    for o in ops:
        n = n_chunks if "error" in o else len(o["progress"])
        out.attempted += n
        if "error" in o:
            out.failed += n
            continue
        pdf = o["sink"].read_committed(spark).toPandas()
        pdf = pdf[pdf["auction"] >= 0]
        got = Counter(
            zip(pdf["window_start"].tolist(), pdf["auction"].tolist(), pdf["n_bids"].tolist())
        )
        if corrupt:
            got[next(iter(got))] += 1
        out.failed += n if got != want else 0

    def batch_ms(o):
        return [p["durationMs"]["triggerExecution"] for p in o["progress"]]

    _summarise(
        out,
        ops,
        rate=lambda o: o["rows_in"] / o["wall_s"],
        batch_ms=batch_ms,
        setup_s=session_s + statistics.median(write_s),
    )
    trig = [ms for o in ops if "error" not in o and not o["traced"] for ms in batch_ms(o)]
    out.info += [
        ("shape", f"q5_counts_stream {w}, {shape['gen']} x {shape['duration_s'][size]}s of "
                  f"bids in {n_chunks} parquet chunks (one per micro-batch), TwoPhaseCommitSink, "
                  f"local[{spark_session.SPARK_CORES}]"),
        ("session_start_s", f"{session_s:.3f}"),
        ("input_rows_per_query", ops[0].get("rows_in", 0)),
        ("batch_samples", len(trig)),
    ]
    if len(trig) > 1:
        out.info.append(("batch_p90_ms", f"{statistics.quantiles(trig, n=10)[-1]:.1f} ms "
                                         f"({len(trig)} samples, too few to gate)"))
    if out.per_layer:
        _sweep_layer(spark, seed, size, tracer, corrupt, out)
    return out


# =========================================================================
# fluid sweep on Spark, in traced spark-stream-q5 runs
# =========================================================================

#: The figure jobs whose specs the sweep runs (Figs 7, 8, 10, 13, 14).
FIGURE_JOBS = (
    "fig07_throughput_vs_latency",
    "fig08_latency_scaleout",
    "fig10_throughput_scaleout",
    "fig13_fault_tolerance",
    "fig14_multitenancy",
)


def _figure_specs(size: str) -> list:
    import importlib

    specs = [s for job in FIGURE_JOBS for s in importlib.import_module(job).specs()]
    return specs if size == "full" else specs[:: max(1, len(specs) // 4)]


def _canon(row) -> tuple:
    return tuple(round(float(v), 9) if isinstance(v, float) else v for v in row)


def _expected_rows(specs) -> Counter:
    """In-process ``fluid.simulate`` on the same specs, as sweep rows."""
    from repro.core import fluid
    from repro.harness import sweep as sweep_mod

    rows = Counter()
    for spec, (_, spec_row) in zip(specs, sweep_mod.specs_to_pdf(specs).iterrows()):
        res = fluid.simulate(spec)
        rows[
            _canon(
                spec_row.tolist()
                + [
                    res.utilization,
                    res.capacity_per_core,
                    fluid.max_throughput(spec),
                    *(res.percentile(p) for p in (50, 90, 99, 99.9, 99.99)),
                ]
            )
        ] += 1
    return rows


def _sweep_tasks(spark, group: str) -> int:
    """Spark tasks of the jobs in ``group``, from the status tracker."""
    tracker = spark.sparkContext.statusTracker()
    n = 0
    for jid in tracker.getJobIdsForGroup(group):
        info = tracker.getJobInfo(jid)
        for sid in info.stageIds if info else ():
            stage = tracker.getStageInfo(sid)
            n += stage.numTasks if stage else 0
    return n


def _sweep_layer(spark, seed, size, tracer, corrupt, out: Outcome) -> None:
    """Time the figure path (``core.fluid``, ``harness.sweep``) in a
    traced run: one Spark sweep of the figure specs, whose rows must
    equal in-process ``fluid.simulate`` on the same specs (a spec whose
    row misses counts as a failed operation)."""
    from dataclasses import replace

    from repro.harness import sweep as sweep_mod

    # the seed offsets the model's sampling seed of every spec
    specs = [replace(s, seed=s.seed + seed) for s in _figure_specs(size)]
    sweep_mod.sweep(spark, specs[:2])  # warm-up: Python workers start here
    group = "perfbench-sweep"
    spark.sparkContext.setJobGroup(group, group)
    t0 = clock()
    res = sweep_mod.sweep(spark, specs)
    wall = clock() - t0
    tracer.reset()
    with tracer.span("fluid.in_process"):
        want = _expected_rows(specs)
    simulate_s = tracer.total_s["fluid.simulate"]
    got = Counter(_canon(r) for r in res[sweep_mod.RESULT_COLS].itertuples(index=False))
    if corrupt:
        k = next(iter(got))
        got = got - Counter({k: 1}) + Counter({k[:-1] + (k[-1] + 1.0,): 1})
    out.attempted += len(specs)
    out.failed += sum((want - got).values())
    out.per_layer.update({
        "fluid.simulate_s": simulate_s,
        "sweep.tasks": _sweep_tasks(spark, group),
        "sweep.wall_s": wall,
        "sweep.overhead_s": wall - simulate_s,
    })
    out.info.append(("sweep", f"harness.sweep over {len(specs)} FluidSpecs of "
                              f"{', '.join(FIGURE_JOBS)}, spec seeds offset by {seed}: "
                              f"{wall:.3f} s"))
