"""Harness (Spark-driven sweep), figure registry and job tests."""
import hashlib
import importlib
import json
import os
import sys
from dataclasses import asdict

import pytest

from repro.core.fluid import FluidSpec, simulate
from repro.harness.report import table
from repro.harness.sweep import RESULT_COLS, specs_to_pdf, sweep

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "jobs"))

from figures import FIGURES  # noqa: E402
from run_figure import run  # noqa: E402


# -- sweep --------------------------------------------------------------


def test_specs_roundtrip_encoding():
    specs = [FluidSpec(query="q1"), FluidSpec(query="q5", guarantee="exactly-once",
                                              snapshot_interval_ms=500)]
    pdf = specs_to_pdf(specs)
    assert list(pdf["query"]) == ["q1", "q5"]
    assert pdf["snapshot_interval_ms"].tolist() == [0.0, 500.0]
    assert pdf["gc_name"].tolist() == ["g1-tuned", "g1-tuned"]


def test_sweep_runs_on_spark_and_matches_local(spark):
    specs = [
        FluidSpec(query="q5", n_nodes=1, rate=6e6, slide_ms=10, duration_s=20, seed=5),
        FluidSpec(query="q1", n_nodes=2, rate=1e6, duration_s=20, seed=5),
    ]
    pdf = sweep(spark, specs)
    assert list(pdf.columns) == RESULT_COLS
    assert len(pdf) == 2
    # the Spark-executed simulation must equal a local run (determinism)
    local = simulate(specs[0])
    row = pdf[pdf["query"] == "q5"].iloc[0]
    assert row["p99_99"] == pytest.approx(local.percentile(99.99))
    assert row["utilization"] == pytest.approx(local.utilization)


# -- report -------------------------------------------------------------


def test_table_renders_markdown():
    md = table("T", [{"a": 1, "b": 2}], ["a", "b"])
    assert "### T" in md and "| a | b |" in md and "| 1 | 2 |" in md


# -- figure registry ------------------------------------------------------


#: figure id -> test id: the figure's job name and its row count
JOB_IDS = {
    "fig07": "fig07_throughput_vs_latency-6",
    "fig08": "fig08_latency_scaleout-20",
    "fig09": "fig09_latency_distribution-5",
    "fig10": "fig10_throughput_scaleout-5",
    "fig11": "fig11_latency_5nodes-5",
    "fig12": "fig12_latency_10nodes-5",
    "fig13": "fig13_fault_tolerance-2",
    "fig14": "fig14_multitenancy-4",
    "baselines": "baseline_schedulers-4",
}

_RESULTS: dict = {}


def _run(spark, fig_id):
    """Each figure's (result frame, table), swept once per test session."""
    if fig_id not in _RESULTS:
        _RESULTS[fig_id] = run(spark, FIGURES[fig_id])
    return _RESULTS[fig_id]


@pytest.mark.parametrize("fig_id", [pytest.param(f, id=JOB_IDS[f]) for f in FIGURES])
def test_job_produces_table(spark, fig_id):
    pdf, md = _run(spark, fig_id)
    assert md.startswith("###") and md.count("|") > 10
    FIGURES[fig_id].check(pdf)


def test_fig07_shape_monotone(spark):
    pdf, _ = _run(spark, "fig07")
    p = pdf.sort_values("rate")["p99_99"].tolist()
    assert p[0] < p[-1]
    assert p[-1] > 50  # saturation tail


def test_fig10_shape_linear(spark):
    pdf, _ = _run(spark, "fig10")
    t = pdf.sort_values("n_nodes")["max_throughput"].tolist()
    assert t[-1] / t[0] > 16


def test_fig13_ft_much_slower_than_no_ft(spark):
    pdf, _ = _run(spark, "fig13")
    ft = pdf[pdf["guarantee"] == "exactly-once"]["p99_99"].iloc[0]
    no = pdf[pdf["guarantee"] != "exactly-once"]["p99_99"].iloc[0]
    assert ft > 10 * no


#: sha256 of the JSON of the 37 specs the benchmark's sweep was baselined on
BENCHMARK_SPECS_SHA256 = "eef70282f2857fff9f44f40c3ea056a12877b5b33f4383236b72e954d50e6bf7"


def test_benchmark_figure_jobs_keep_their_specs(monkeypatch):
    """``perfbench`` imports each of its ``FIGURE_JOBS`` from jobs/ and
    sweeps their ``specs()``: those must stay the same specs, in order."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from workloads import FIGURE_JOBS

    specs = [s for job in FIGURE_JOBS for s in importlib.import_module(job).specs()]
    assert len(specs) == 37
    blob = json.dumps([asdict(s) for s in specs], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == BENCHMARK_SPECS_SHA256


def test_exact_engine_validation_job(spark):
    mod = __import__("exact_engine_validation")
    pdf, md = mod.run(spark)
    assert bool(pdf["matches oracle"].all())
    assert "exactly-once" in md
