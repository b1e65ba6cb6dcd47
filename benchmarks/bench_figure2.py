"""Benchmark regenerating **Figure 2** of the paper (%diff vs wmin, m = 10).

Figure 2 plots the mean relative distance to the IE reference against the
difficulty parameter ``wmin`` for the eight best heuristics.  The qualitative
shape to reproduce: Y-IE (and P-IE) beat IE on easy-to-moderate instances
(negative relative distance at small wmin) while IE catches up — and
eventually wins — on the hardest instances (largest wmin), where "pick the
fastest workers and hope for the best" becomes the right strategy.

The default benchmark grid sweeps a subset of the wmin range with a reduced
heuristic set (the four headline heuristics); use ``REPRO_BENCH_SCALE`` to
enlarge it.
"""

from __future__ import annotations

import pytest

from _config import campaign_spec, write_result
from repro.experiments.figures import figure2_series, format_figure2
from repro.experiments.runner import run_campaign_spec
from repro.experiments.spec import CampaignSpec

#: Heuristics plotted by the benchmark (subset of the paper's eight for speed).
FIGURE2_HEURISTICS = ("IE", "Y-IE", "P-IE")

#: A higher makespan cap than the table benchmarks: the hard (large wmin)
#: cells are exactly the interesting part of Figure 2, and capping them too
#: early would drop the right-hand side of the sweep.
FIGURE2_SPEC = CampaignSpec(
    ncom_values=(10,),
    wmin_values=(1, 3, 5, 7),
    scenarios_per_cell=1,
    trials_per_scenario=1,
    iterations=10,
    makespan_cap=120_000,
)


@pytest.mark.benchmark(group="figure2")
def test_figure2_series(benchmark):
    """Run the Figure 2 sweep and regenerate its data series."""
    spec = campaign_spec(
        FIGURE2_SPEC, name="figure2", m_values=(10,), heuristics=FIGURE2_HEURISTICS
    )

    def run():
        return figure2_series(run_campaign_spec(spec))

    series = benchmark.pedantic(run, rounds=1, iterations=1)

    text = format_figure2(series, heuristics=[h for h in FIGURE2_HEURISTICS if h in series])
    report = (
        "Figure 2 reproduction — mean relative distance to IE vs wmin (m = 10)\n"
        + text
        + "\n\nPaper shape: Y-IE/P-IE below 0 for small wmin, IE best for the largest wmin."
    )
    print("\n" + report)
    write_result("figure2.txt", report)

    assert "IE" in series
    # The reference series is identically zero by construction.
    assert all(abs(value) < 1e-12 for _, value in series["IE"])
