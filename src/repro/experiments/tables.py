"""Rebuilding Table I and Table II of the paper.

Table I reports #fails, %diff, %wins, %wins30 and stdv for all seventeen
heuristics with ``m = 5``; Table II reports the best eight heuristics with
``m = 10``.  The formatters here render campaign results (see
:func:`~repro.experiments.runner.run_campaign_spec`) in the same columns
as the paper.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.metrics import (
    DEFAULT_REFERENCE,
    HeuristicSummary,
    filter_results,
    summarize_results,
)
from repro.experiments.runner import InstanceResult
from repro.experiments.spec import CampaignSpec
from repro.utils.tables import format_table

__all__ = [
    "format_summaries",
    "format_spec_report",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
]

#: Paper-reported Table I rows (m = 5): heuristic -> (fails, %diff, %wins, %wins30, stdv).
PAPER_TABLE1 = {
    "Y-IE": (2, -11.82, 72.58, 92.09, 0.42),
    "P-IE": (2, -10.50, 70.98, 91.19, 0.44),
    "E-IAY": (4, -10.40, 64.75, 85.15, 0.77),
    "E-IY": (4, -3.40, 59.91, 81.64, 0.80),
    "IE": (1, 0.00, 100.00, 100.00, 0.00),
    "IAY": (2, 13.59, 51.07, 76.42, 1.93),
    "E-IP": (4, 19.35, 47.73, 69.69, 0.98),
    "IY": (2, 24.22, 45.26, 70.85, 1.96),
    "IP": (2, 52.03, 34.79, 58.54, 2.11),
    "E-IE": (5, 53.93, 39.57, 64.51, 2.57),
    "Y-IAY": (3, 99.75, 53.89, 70.77, 5.55),
    "Y-IY": (3, 113.01, 49.22, 66.80, 5.73),
    "P-IAY": (3, 125.27, 50.28, 67.33, 6.08),
    "Y-IP": (2, 145.05, 38.56, 55.54, 5.90),
    "P-IY": (3, 145.78, 42.54, 59.66, 6.22),
    "P-IP": (2, 176.92, 36.92, 52.00, 6.61),
    "RANDOM": (0, 2124.42, 0.00, 0.20, 22.54),
}

#: Paper-reported Table II rows (m = 10, best eight heuristics).
PAPER_TABLE2 = {
    "Y-IE": (141, -10.33, 71.35, 88.42, 0.54),
    "P-IE": (141, -8.62, 69.64, 87.23, 0.55),
    "E-IAY": (178, -6.10, 66.62, 81.93, 1.58),
    "E-IY": (176, 8.04, 61.90, 77.87, 3.07),
    "E-IP": (168, 29.68, 55.12, 71.86, 3.01),
    "IAY": (152, 136.65, 46.98, 69.31, 14.76),
    "IY": (152, 147.77, 42.06, 64.47, 14.76),
    "IE": (0, 0.00, 100.00, 100.00, 0.00),
}

_HEADERS = ["Heuristic", "#fails", "%diff", "%wins", "%wins30", "stdv"]


def format_summaries(summaries: Sequence[HeuristicSummary], *, title: str = "") -> str:
    """Render summaries as a Table I/II style text table."""
    rows = [summary.as_row() for summary in summaries]
    table = format_table(rows, headers=_HEADERS)
    if title:
        return f"{title}\n{table}"
    return table


def format_spec_report(results: Sequence[InstanceResult], spec: CampaignSpec) -> str:
    """Render a spec campaign as one Table-I-style section per grid slice.

    The comparison metrics pair instances through the legacy scenario keys,
    which do not separate platform sizes — so a multi-``m`` /
    multi-``num_processors`` campaign is reported slice by slice.  The
    reference heuristic is the paper's IE when the spec includes it,
    otherwise the spec's first heuristic.

    A slice whose completed cells do not yet include the reference (a
    partially-run or sharded store) is reported as pending instead of
    raising, so ``--report`` stays usable mid-campaign.
    """
    reference = DEFAULT_REFERENCE if DEFAULT_REFERENCE in spec.heuristics else spec.heuristics[0]
    sections: List[str] = []
    for m in spec.m_values:
        for num_processors in spec.num_processors_values:
            subset = filter_results(results, m=m, num_processors=num_processors)
            if not subset:
                continue
            title = f"Campaign {spec.name!r} — m = {m}"
            if len(spec.num_processors_values) > 1:
                title += f", p = {num_processors}"
            title += f" ({len(subset)} results, reference {reference})"
            if not any(result.heuristic == reference for result in subset):
                sections.append(
                    f"{title}\n  no completed {reference} cells yet — "
                    "comparison metrics pending"
                )
                continue
            summaries = summarize_results(subset, reference=reference)
            sections.append(format_summaries(summaries, title=title))
    if not sections:
        return f"Campaign {spec.name!r}: no completed cells to report"
    return "\n\n".join(sections)

