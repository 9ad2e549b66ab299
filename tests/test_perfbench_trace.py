"""The benchmark's tracer still reaches the engine.

``perfbench/tracing.py`` wraps engine, tasklet, queue and IMDG methods
by name. A renamed or no longer called method must fail here, not only
in a traced benchmark run: this runs the smallest traced engine
workload, with a node crash, from a directory that holds nothing but
links to ``src`` and ``perfbench``.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_engine_workload_reaches_every_layer(tmp_path):
    for name in ("src", "perfbench"):
        os.symlink(os.path.join(ROOT, name), tmp_path / name)
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", "engine-q8-xo-crash",
        "--seed", "1", "--size", "tiny", "--seconds", "1", "--trace", "1",
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    for key in ("engine.worker_slices", "tasklet.runs", "source.runs", "queues.polls",
                "network.acks", "imdg.puts", "engine.recoveries"):
        assert metrics[key] > 0, key
