"""Benchmark regenerating **Table II** of the paper (m = 10, best 8 heuristics).

Table II reports the same metrics as Table I but for the harder m = 10
instances, restricted to the eight heuristics with %diff below 50 % in the
paper: Y-IE, P-IE, E-IAY, E-IY, E-IP, IAY, IY and the IE reference.  Expected
qualitative shape: the proactive heuristics built on IE host selection
(Y-IE, P-IE) remain ahead of the reference, and the purely passive yield
heuristics (IAY, IY) fall far behind.
"""

from __future__ import annotations

import pytest

from _config import BENCH_SPEC_M10, campaign_spec, instances, write_result
from repro.experiments.metrics import summarize_results
from repro.experiments.report import compare_with_paper, format_comparison
from repro.experiments.runner import run_campaign_spec
from repro.experiments.tables import PAPER_TABLE2, format_summaries
from repro.scheduling.registry import TABLE2_HEURISTICS


@pytest.mark.benchmark(group="table2")
def test_table2_campaign(benchmark):
    """Run the Table II campaign and regenerate the table."""
    spec = campaign_spec(
        BENCH_SPEC_M10, name="table2", m_values=(10,), heuristics=TABLE2_HEURISTICS
    )

    def run():
        return summarize_results(run_campaign_spec(spec))

    summaries = benchmark.pedantic(run, rounds=1, iterations=1)

    text = format_summaries(
        summaries,
        title=f"Table II reproduction (m = 10, {instances(spec)} instances per heuristic)",
    )
    paper_rows = "\n".join(
        f"  {name:8s} fails={row[0]:>3d}  %diff={row[1]:>8.2f}  %wins={row[2]:>6.2f}  "
        f"%wins30={row[3]:>6.2f}  stdv={row[4]:>5.2f}"
        for name, row in PAPER_TABLE2.items()
    )
    comparison = format_comparison(compare_with_paper(summaries, PAPER_TABLE2))
    report = (
        f"{text}\n\nPaper-reported Table II (for comparison):\n{paper_rows}"
        f"\n\nShape comparison with the paper:\n{comparison}"
    )
    print("\n" + report)
    write_result("table2.txt", report)

    by_name = {summary.heuristic: summary for summary in summaries}
    assert set(by_name) == set(TABLE2_HEURISTICS)
    assert by_name["IE"].pct_diff == pytest.approx(0.0)
