"""Self-check of the benchmark itself (takes a few minutes).

For every workload in ``BENCHMARK.json``, a tiny-size pass must

* untraced: print every end-to-end metric with its unit, as a
  ``metric`` line and in the JSON result, with ``correct`` true and no
  failed operation;
* traced: do the same for every per-layer metric;
* with ``--corrupt`` (one output row tampered with before each oracle
  check), untraced and traced: report failed operations, ``correct``
  false and a ``failed_ratio`` above 0.

Finally ``run.py`` must exit non-zero without printing a result in a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
Run from the root of a checkout::

    python3 perfbench/selfcheck.py
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile


def _run(cmd, cwd="."):
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def main() -> int:
    bench = json.load(open("BENCHMARK.json"))
    problems = []
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in [w["name"] for w in bench["workloads"]]:
        for trace, corrupt in ((0, False), (1, False), (0, True), (1, True)):
            cmd = bench["command"] + ["--workload", w, "--seed", "1", "--seconds", "1",
                                      "--trace", str(trace), "--size", "tiny"]
            cmd += ["--corrupt"] if corrupt else []
            code, lines = _run(cmd)
            tag = f"{w} trace={trace}{' corrupt' if corrupt else ''}"
            if code != 0 or not lines:
                problems.append(f"{tag}: exit {code}")
                continue
            res = json.loads(lines[-1])
            printed = {
                m.group(1): m.group(2)
                for m in (re.match(r"metric (\S+) = \S+ (\S+)", ln) for ln in lines) if m
            }
            for name, unit in units[trace].items():
                if res["metrics"].get(name, {}).get("unit") != unit or printed.get(name) != unit:
                    problems.append(f"{tag}: metric {name} [{unit}] missing")
            ratio = res["failed"] / res["attempted"]
            if corrupt and (res["correct"] or ratio <= 0):
                problems.append(f"{tag}: corrupted output not caught")
            if not corrupt and (not res["correct"] or res["failed"]):
                problems.append(f"{tag}: failed {res['failed']}/{res['attempted']}")
            print(f"{tag}: correct {res['correct']} failed_ratio {ratio:.3f} "
                  f"metrics {len(res['metrics'])}", flush=True)

    # a directory with only the benchmark's own files must be refused
    bare = tempfile.mkdtemp(prefix="perfbench-bare-", dir=".")
    try:
        shutil.copy("BENCHMARK.json", bare)
        for p in bench["paths"]:
            shutil.copytree(p, os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run(bench["command"] + ["--workload", bench["workloads"][0]["name"],
                                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare)
        if code == 0 or any(ln.startswith("{") for ln in lines):
            problems.append(f"bare directory: exit {code}, printed a result")
        print(f"bare directory: exit {code}")
    finally:
        shutil.rmtree(bare)

    for p in problems:
        print("PROBLEM:", p)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
