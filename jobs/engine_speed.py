"""Exact-engine wall-clock speed: input events per second of wall time.

Runs Q1, Q5, Q8 and Q13 on 2 nodes × 2 cooperative threads, Q5 at the
paper's Fig 7 window geometry (10 s window, 10 ms slide), and Q5 at the
paper's per-node geometry (5 and 10 nodes × 12 threads), and prints one
JSON object: per case, the number of source events the job reads, the median
wall time of ``JetEngine.run`` over the repeats and the events/s it
gives.

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

def _dense():
    return gen.generate(rate=8_000, duration_s=1.0, n_keys=300, seed=5)


def _q13(d):
    t0 = int(d.bids["arrival_ms"].min())
    return qj.q13_pipeline(side_size=64), {
        "bids": qj.bid_events(d),
        "side": qj.side_events(64, t0),
    }


def _q5_1s_100ms(d):
    return qj.q5_pipeline(size_ms=1_000, slide_ms=100), {"bids": qj.bid_events(d)}


def _q5_x12_input():
    return gen.generate(rate=4_000, duration_s=2.0, n_keys=300, seed=5)


#: case -> (input maker, pipeline and sources for that input, repeats,
#: nodes, threads per node)
CASES = {
    "q1": (_dense, lambda d: (qj.q1_pipeline(), {"bids": qj.bid_events(d)}), 3, 2, 2),
    "q5_1s_100ms": (_dense, _q5_1s_100ms, 3, 2, 2),
    "q8": (
        _dense,
        lambda d: (
            qj.q8_pipeline(size_ms=500),
            {"persons": qj.person_events(d), "auctions": qj.auction_events(d)},
        ),
        3,
        2,
        2,
    ),
    "q13": (_dense, _q13, 3, 2, 2),
    "q5_10s_10ms": (
        lambda: gen.generate(rate=200, duration_s=11.0, n_keys=50, seed=7),
        lambda d: (qj.q5_pipeline(size_ms=10_000, slide_ms=10), {"bids": qj.bid_events(d)}),
        1,
        2,
        2,
    ),
    "q5_5x12": (_q5_x12_input, _q5_1s_100ms, 1, 5, 12),
    "q5_10x12": (_q5_x12_input, _q5_1s_100ms, 1, 10, 12),
}


def measure(name: str) -> dict:
    make_data, make_job, repeats, n_nodes, threads = CASES[name]
    cfg = SimConfig(threads_per_node=threads, slice_ms=0.5)
    data = make_data()
    walls, events = [], 0
    for _ in range(repeats):
        pipeline, sources = make_job(data)
        events = sum(len(s) for s in sources.values())
        eng = JetEngine(pipeline.compile(), sources, n_nodes=n_nodes, cfg=cfg)
        t = time.perf_counter()
        eng.run()
        walls.append(time.perf_counter() - t)
    wall = statistics.median(walls)
    return {"events": events, "wall_s": round(wall, 3), "events_per_s": round(events / wall, 1)}


def main(names: list[str]) -> None:
    print(json.dumps({n: measure(n) for n in names or CASES}, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])
