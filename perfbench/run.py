"""Repository benchmark: one command, three workloads, oracle-checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload engine-q5-sliding --seed 1 --seconds 12 --trace 0

Prints the workload's shape, seed and sample counts, every metric by
name and unit, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives
the end-to-end metrics (untraced), ``--trace 1`` the per-layer metrics
(from wrappers installed by ``perfbench/tracing.py``) and writes the
spans to ``.perfbench_work/traces/``. ``--size tiny`` and ``--corrupt``
exist for ``perfbench/selfcheck.py``.

Exits with code 2, printing no result, when the checkout holds no
``src/repro`` to benchmark.
"""
import argparse
import contextlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("engine-q5-sliding", "engine-q8-xo-crash", "spark-stream-q5")

#: End-to-end metrics, reported on every workload (see README.md).
END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "batch_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", action="store_true", help="tamper with outputs (self-check)")
    ap.add_argument("--part", action="store_true",
                    help="print the jobs of one process's share of an engine run (internal)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src_dir = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src_dir, "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {root}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, src_dir, os.path.join(root, "jobs")]

    import tracing
    import workloads

    if args.part:
        part = workloads.engine_part(
            args.workload, args.seed, args.seconds, size=args.size, corrupt=args.corrupt
        )
        print(json.dumps(part))
        return 0

    work_root = os.path.join(root, ".perfbench_work")
    work_dir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    kw = dict(size=args.size, tracer=tracer, corrupt=args.corrupt)
    span = (
        tracer.span("workload", workload=args.workload, seed=args.seed)
        if tracer is not None
        else contextlib.nullcontext()
    )
    try:
        with span:
            if args.workload.startswith("engine-"):
                out = workloads.run_engine(args.workload, args.seed, args.seconds, **kw)
            else:
                out = workloads.run_stream(
                    args.seed, args.seconds, work_dir=work_dir, src_dir=src_dir, **kw
                )
    finally:
        if tracer is not None:
            tracing.uninstall(tracer)
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        units = tracing.PER_LAYER_UNITS
        values = {k: out.per_layer.get(k, 0) for k in units}
    else:
        units = END_TO_END_UNITS
        values = {k: out.end_to_end.get(k, 0.0) for k in units}
    metrics = {k: {"value": _num(v), "unit": units[k]} for k, v in values.items()}

    attempted = max(out.attempted, 1)
    failed = out.failed if out.attempted else 1
    correct = failed == 0 and bool(out.end_to_end or out.per_layer)
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  size {args.size}")
    for label, value in out.info:
        print(f"# {label}: {value}")
    print(f"# attempted {attempted} operations, failed {failed}, "
          f"failed_ratio {failed / attempted:.4f} ratio")
    for k, m in metrics.items():
        alias = "  (events_per_s)" if k == "items_per_s" else ""
        print(f"metric {k} = {m['value']:.6g} {m['unit']}{alias}")
    if tracer is not None:
        trace_dir = os.path.join(work_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        tracer.write(path, {k: m["value"] for k, m in metrics.items()})
        print(f"# spans: {len(tracer.spans)} written to {os.path.relpath(path, root)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _num(v):
    v = float(v)
    return int(v) if v.is_integer() and abs(v) < 2**53 else v


if __name__ == "__main__":
    sys.exit(main())
