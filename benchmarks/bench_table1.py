"""Benchmark regenerating **Table I** of the paper (m = 5, all 17 heuristics).

The paper reports, for each heuristic, the number of failed instances, the
mean relative difference to the IE reference (%diff), the fraction of trials
won (%wins), the fraction within 30 % of IE (%wins30) and the standard
deviation over scenarios.  Expected qualitative shape (paper values are kept
in ``repro.experiments.tables.PAPER_TABLE1``):

* RANDOM is worse than every informed heuristic by an order of magnitude;
* the best heuristics are proactive (Y-IE, P-IE, E-IAY, E-IY beat IE);
* IE itself is the most robust passive heuristic.

Run with a larger grid via ``REPRO_BENCH_SCALE=reduced`` (or ``paper``).
"""

from __future__ import annotations

import pytest

from _config import BENCH_SPEC, campaign_spec, instances, write_result
from repro.experiments.metrics import summarize_results
from repro.experiments.report import compare_with_paper, format_comparison
from repro.experiments.runner import run_campaign_spec
from repro.experiments.tables import PAPER_TABLE1, format_summaries
from repro.scheduling.registry import ALL_HEURISTICS


@pytest.mark.benchmark(group="table1")
def test_table1_campaign(benchmark):
    """Run the Table I campaign and regenerate the table."""
    spec = campaign_spec(BENCH_SPEC, name="table1", m_values=(5,), heuristics=ALL_HEURISTICS)

    def run():
        return summarize_results(run_campaign_spec(spec))

    summaries = benchmark.pedantic(run, rounds=1, iterations=1)

    text = format_summaries(
        summaries,
        title=f"Table I reproduction (m = 5, {instances(spec)} instances per heuristic)",
    )
    paper_rows = "\n".join(
        f"  {name:8s} fails={row[0]:>3d}  %diff={row[1]:>8.2f}  %wins={row[2]:>6.2f}  "
        f"%wins30={row[3]:>6.2f}  stdv={row[4]:>5.2f}"
        for name, row in PAPER_TABLE1.items()
    )
    comparison = format_comparison(compare_with_paper(summaries, PAPER_TABLE1))
    report = (
        f"{text}\n\nPaper-reported Table I (for comparison):\n{paper_rows}"
        f"\n\nShape comparison with the paper:\n{comparison}"
    )
    print("\n" + report)
    write_result("table1.txt", report)

    # Sanity checks on the qualitative shape.
    by_name = {summary.heuristic: summary for summary in summaries}
    assert set(by_name) == set(ALL_HEURISTICS)
    reference = by_name["IE"]
    assert reference.pct_diff == pytest.approx(0.0)
    random_summary = by_name["RANDOM"]
    if random_summary.pct_diff is not None:
        # RANDOM must be far worse than the reference whenever it completes.
        assert random_summary.pct_diff > 50.0
