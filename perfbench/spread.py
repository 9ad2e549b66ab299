"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed for each workload, one run at a time,
and prints per metric the median and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to a third of the metric's bound from
``BENCHMARK.json``. Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads engine-q8-xo-crash --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out spread.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main() -> int:
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="also write every run's result here (JSON)")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict = {}
    summary: dict = {}
    ok = True
    for w in args.workloads:
        runs[w] = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - t0
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            res = json.loads(last) if proc.returncode == 0 else {}
            res["wall_s"] = wall
            runs[w].append(res)
            ok &= proc.returncode == 0 and res.get("correct", False)
            print(f"{w} seed {seed}: exit {proc.returncode} correct {res.get('correct')} "
                  f"failed {res.get('failed')}/{res.get('attempted')} wall {wall:.1f}s "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res.get("metrics", {}).items()),
                  flush=True)
        summary[w] = {}
        for name in bounds if not args.trace else []:
            vals = [r["metrics"][name]["value"] for r in runs[w] if "metrics" in r]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "bound": bounds[name], "n": len(vals)}
            print(f"  {w:20s} {name:14s} median {med:10.5g}  spread {spread:6.3f}  "
                  f"bound/3 {bounds[name] / 3:.3f}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                       "summary": summary, "runs": runs}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
