"""Comparing a measured campaign against the paper's published tables.

Absolute makespans cannot be compared across simulators (different cap,
different Monte-Carlo realisations, reduced grids), so the comparison focuses
on the *shape* of the result, which is what the reproduction is expected to
preserve:

* the ranking of heuristics by %diff (Spearman rank correlation against the
  paper's ranking);
* sign agreement: which heuristics beat the IE reference (negative %diff)
  and which do not;
* the magnitude class of RANDOM (an order of magnitude worse than everything
  else).

These comparisons are what EXPERIMENTS.md records for every table, and the
:func:`compare_with_paper` report is printed by the table benchmarks so a
reader can judge the reproduction quality at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.metrics import HeuristicSummary
from repro.experiments.store import StoreStatus
from repro.utils.tables import format_table

__all__ = [
    "PaperComparison",
    "compare_with_paper",
    "format_comparison",
    "format_store_status",
]


@dataclass(frozen=True)
class PaperComparison:
    """Shape comparison between measured summaries and a paper table."""

    #: Heuristics present in both the measurement and the paper table.
    common_heuristics: Tuple[str, ...]
    #: Spearman rank correlation between the two %diff orderings (None when
    #: fewer than three heuristics are comparable).
    rank_correlation: Optional[float]
    #: Fraction of heuristics whose %diff sign (beats IE / does not) agrees.
    sign_agreement: Optional[float]
    #: Heuristics that beat IE in the measurement.
    measured_winners: Tuple[str, ...]
    #: Heuristics that beat IE in the paper.
    paper_winners: Tuple[str, ...]
    #: Per-heuristic (measured %diff, paper %diff) pairs.
    diffs: Dict[str, Tuple[Optional[float], float]]

    def agrees_on_shape(self, *, min_rank_correlation: float = 0.3,
                        min_sign_agreement: float = 0.6) -> bool:
        """A lenient overall verdict used by the benchmarks' sanity checks."""
        checks: List[bool] = []
        if self.rank_correlation is not None:
            checks.append(self.rank_correlation >= min_rank_correlation)
        if self.sign_agreement is not None:
            checks.append(self.sign_agreement >= min_sign_agreement)
        return all(checks) if checks else False


def compare_with_paper(
    summaries: Sequence[HeuristicSummary],
    paper_table: Mapping[str, Tuple[float, float, float, float, float]],
    *,
    reference: str = "IE",
) -> PaperComparison:
    """Compare measured summaries with a paper table (``PAPER_TABLE1``/``2``)."""
    measured: Dict[str, Optional[float]] = {s.heuristic: s.pct_diff for s in summaries}
    common = [
        name
        for name in paper_table
        if name in measured and name != reference and measured[name] is not None
    ]
    diffs = {
        name: (measured.get(name), float(paper_table[name][1]))
        for name in paper_table
        if name in measured
    }

    rank_correlation: Optional[float] = None
    if len(common) >= 3:
        from scipy import stats  # heavy; only this comparison needs it

        measured_values = [measured[name] for name in common]
        paper_values = [paper_table[name][1] for name in common]
        correlation = stats.spearmanr(measured_values, paper_values).correlation
        rank_correlation = None if np.isnan(correlation) else float(correlation)

    if common:
        agreements = sum(
            1
            for name in common
            if (measured[name] < 0) == (paper_table[name][1] < 0)
        )
        sign_agreement = agreements / len(common)
    else:
        sign_agreement = None

    measured_winners = tuple(
        sorted(name for name in common if measured[name] is not None and measured[name] < 0)
    )
    paper_winners = tuple(
        sorted(name for name in paper_table if name != reference and paper_table[name][1] < 0)
    )
    return PaperComparison(
        common_heuristics=tuple(common),
        rank_correlation=rank_correlation,
        sign_agreement=sign_agreement,
        measured_winners=measured_winners,
        paper_winners=paper_winners,
        diffs=diffs,
    )


def format_store_status(status: StoreStatus) -> str:
    """Human-readable completion report of a campaign result store."""
    percent = 100.0 * status.completed / status.total_cells if status.total_cells else 0.0
    lines = [
        f"Campaign {status.spec_name!r} (spec {status.spec_hash[:12]}, "
        f"{status.backend} store at {status.directory})",
        f"  cells: {status.completed}/{status.total_cells} complete "
        f"({percent:.1f}%), {status.remaining} remaining",
    ]
    rows = [
        [heuristic, done, total, f"{100.0 * done / total:.1f}%" if total else "n/a"]
        for heuristic, done, total in status.by_heuristic
    ]
    lines.append(format_table(rows, headers=["heuristic", "done", "total", "%"]))
    return "\n".join(lines)


def format_comparison(comparison: PaperComparison) -> str:
    """Human-readable rendering of a :class:`PaperComparison`."""
    rows = []
    for name, (measured, paper) in sorted(comparison.diffs.items(), key=lambda kv: kv[1][1]):
        rows.append([
            name,
            "n/a" if measured is None else round(measured, 2),
            round(paper, 2),
        ])
    table = format_table(rows, headers=["heuristic", "measured %diff", "paper %diff"])
    lines = [table, ""]
    if comparison.rank_correlation is not None:
        lines.append(f"Spearman rank correlation of %diff orderings: "
                     f"{comparison.rank_correlation:.2f}")
    if comparison.sign_agreement is not None:
        lines.append(f"Sign agreement (beats IE or not): {100 * comparison.sign_agreement:.0f}%")
    lines.append(f"Beat IE in this run : {', '.join(comparison.measured_winners) or '(none)'}")
    lines.append(f"Beat IE in the paper: {', '.join(comparison.paper_winners) or '(none)'}")
    return "\n".join(lines)
