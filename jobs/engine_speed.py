"""Exact-engine wall-clock speed: input events per second of wall time.

Runs Q1, Q5, Q8 and Q13 on 2 nodes × 2 cooperative threads, plus Q5 at
the paper's Fig 7 window geometry (10 s window, 10 ms slide), and prints
one JSON object: per case, the number of source events the job reads,
the median wall time of ``JetEngine.run`` over the repeats and the
events/s it gives.

    PYTHONPATH=src python jobs/engine_speed.py [CASE ...]

``PYTHONPATH`` picks the engine that is measured, so the same script
times two checkouts on one machine.
"""
import json
import statistics
import sys
import time

from repro.core.engine import JetEngine, SimConfig
from repro.nexmark import generator as gen
from repro.nexmark import queries_jet as qj

CFG = SimConfig(threads_per_node=2, slice_ms=0.5)


def _dense():
    return gen.generate(rate=8_000, duration_s=1.0, n_keys=300, seed=5)


def _q13(d):
    t0 = int(d.bids["arrival_ms"].min())
    return qj.q13_pipeline(side_size=64), {
        "bids": qj.bid_events(d),
        "side": qj.side_events(64, t0),
    }


#: case -> (input maker, pipeline and sources for that input, repeats)
CASES = {
    "q1": (_dense, lambda d: (qj.q1_pipeline(), {"bids": qj.bid_events(d)}), 3),
    "q5_1s_100ms": (
        _dense,
        lambda d: (qj.q5_pipeline(size_ms=1_000, slide_ms=100), {"bids": qj.bid_events(d)}),
        3,
    ),
    "q8": (
        _dense,
        lambda d: (
            qj.q8_pipeline(size_ms=500),
            {"persons": qj.person_events(d), "auctions": qj.auction_events(d)},
        ),
        3,
    ),
    "q13": (_dense, _q13, 3),
    "q5_10s_10ms": (
        lambda: gen.generate(rate=200, duration_s=11.0, n_keys=50, seed=7),
        lambda d: (qj.q5_pipeline(size_ms=10_000, slide_ms=10), {"bids": qj.bid_events(d)}),
        1,
    ),
}


def measure(name: str) -> dict:
    make_data, make_job, repeats = CASES[name]
    data = make_data()
    walls, events = [], 0
    for _ in range(repeats):
        pipeline, sources = make_job(data)
        events = sum(len(s) for s in sources.values())
        eng = JetEngine(pipeline.compile(), sources, n_nodes=2, cfg=CFG)
        t = time.perf_counter()
        eng.run()
        walls.append(time.perf_counter() - t)
    wall = statistics.median(walls)
    return {"events": events, "wall_s": round(wall, 3), "events_per_s": round(events / wall, 1)}


def main(names: list[str]) -> None:
    print(json.dumps({n: measure(n) for n in names or CASES}, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])
