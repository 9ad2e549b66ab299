"""Benchmark regenerating every figure table of the registry; each
figure's checks hold and their values land in the JSON record."""
import pytest

from figures import FIGURES
from run_figure import run


@pytest.mark.parametrize("fig_id", FIGURES)
def test_figure(spark, benchmark, fig_id):
    fig = FIGURES[fig_id]
    pdf, md = benchmark.pedantic(lambda: run(spark, fig), rounds=1, iterations=1)
    print(md)
    benchmark.extra_info.update(fig.check(pdf))
