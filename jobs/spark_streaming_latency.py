"""Measured comparator: Spark Structured Streaming micro-batch latency.

The paper's premise (§1) is that existing scale-out processors, built
on coarser execution models, cannot hold tens-of-milliseconds tails.
This job *measures* (not simulates) the micro-batch trigger latency of
real Structured Streaming runs of Q1 (stateless) and Q5 (sliding
window) on this machine: the per-trigger execution time is a hard floor
on end-to-end event latency in a micro-batch engine, and lands orders
of magnitude above Jet's single-digit milliseconds.
"""
import os
import sys
import tempfile

import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(__file__))

from repro.harness.report import table
from repro.nexmark import generator as gen
from repro.nexmark import queries_batch as qb
from repro.nexmark import queries_stream as qs
from repro.nexmark.schema import BID_SCHEMA
from repro.sinks.replayable import with_flush_sentinel, write_chunks


def measure(spark, make_stream, pdf: pd.DataFrame, *, n_chunks: int = 12) -> dict:
    """Run a streaming query over ``n_chunks`` micro-batches and return
    trigger-duration percentiles (ms) from the progress log."""
    with tempfile.TemporaryDirectory() as tmp:
        d = os.path.join(tmp, "in")
        write_chunks(pdf, d, n_chunks=n_chunks)
        sdf = make_stream(qs.read_stream(spark, d, BID_SCHEMA))
        q = (
            sdf.writeStream.format("noop")
            .outputMode("append")
            .option("checkpointLocation", os.path.join(tmp, "ckpt"))
            .start()
        )
        q.processAllAvailable()
        durations = [
            p["durationMs"]["triggerExecution"]
            for p in q.recentProgress
            if p.get("numInputRows", 0) > 0
        ]
        q.stop()
    arr = np.array(durations, dtype=float)
    return {
        "batches": len(arr),
        "p50": float(np.percentile(arr, 50)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }


def run(spark):
    data = gen.generate(rate=60_000, duration_s=2.0, n_keys=10_000, seed=3)
    bids = with_flush_sentinel(data.bids, advance_ms=120_000)
    q1 = measure(spark, qb.q1, bids)
    q5 = measure(
        spark,
        lambda s: qs.q5_counts_stream(s, size_ms=10_000, slide_ms=1_000, watermark_ms=0),
        bids,
    )
    rows = [
        {"query": "Q1 (stateless map)", **{k: f"{v:.0f}" for k, v in q1.items()}},
        {"query": "Q5 (sliding window agg)", **{k: f"{v:.0f}" for k, v in q5.items()}},
    ]
    md = table(
        "Measured Spark Structured Streaming micro-batch trigger latency (ms) — "
        "the 'existing system' comparator (Jet simulated p99.99: ~10 ms)",
        rows,
        ["query", "batches", "p50", "p99", "max"],
    )
    pdf = pd.DataFrame([{"query": "q1", **q1}, {"query": "q5", **q5}])
    return pdf, md


if __name__ == "__main__":
    from _common import run_main

    run_main(run, "spark-streaming-latency")
