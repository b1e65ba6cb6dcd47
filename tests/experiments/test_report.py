"""Tests for the paper-comparison report."""

import sys

import numpy as np
import pytest

from repro.experiments.metrics import HeuristicSummary
from repro.experiments.report import compare_with_paper, format_comparison
from repro.experiments.tables import PAPER_TABLE1


def make_summary(name, pct_diff):
    return HeuristicSummary(
        heuristic=name, fails=0, pct_diff=pct_diff, pct_wins=50.0, pct_wins30=80.0,
        stdv=0.5, num_scenarios=4, num_trials=8,
    )


class TestCompareWithPaper:
    def test_perfect_agreement(self):
        summaries = [make_summary(name, row[1]) for name, row in PAPER_TABLE1.items()]
        comparison = compare_with_paper(summaries, PAPER_TABLE1)
        assert comparison.rank_correlation == pytest.approx(1.0)
        assert comparison.sign_agreement == pytest.approx(1.0)
        assert comparison.agrees_on_shape()
        assert set(comparison.measured_winners) == set(comparison.paper_winners)

    def test_inverted_ranking_detected(self):
        summaries = [make_summary(name, -row[1]) for name, row in PAPER_TABLE1.items()]
        comparison = compare_with_paper(summaries, PAPER_TABLE1)
        assert comparison.rank_correlation == pytest.approx(-1.0)
        assert not comparison.agrees_on_shape()

    def test_partial_overlap(self):
        summaries = [make_summary("Y-IE", -5.0), make_summary("IE", 0.0),
                     make_summary("NOT-IN-PAPER", 3.0)]
        comparison = compare_with_paper(summaries, PAPER_TABLE1)
        assert "NOT-IN-PAPER" not in comparison.diffs
        assert comparison.rank_correlation is None  # fewer than 3 common heuristics
        assert comparison.sign_agreement == pytest.approx(1.0)

    def test_missing_measurements_are_skipped(self):
        summaries = [make_summary("Y-IE", None), make_summary("RANDOM", 500.0),
                     make_summary("IE", 0.0)]
        comparison = compare_with_paper(summaries, PAPER_TABLE1)
        assert "Y-IE" not in comparison.common_heuristics
        assert "RANDOM" in comparison.common_heuristics

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_correlation_matches_scipy_on_ties(self, seed):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(seed)
        names = list(PAPER_TABLE1)
        # Few distinct values: the measured %diffs tie often.
        measured = rng.integers(-3, 4, size=len(names)).astype(float)
        summaries = [make_summary(name, value) for name, value in zip(names, measured)]
        comparison = compare_with_paper(summaries, PAPER_TABLE1)
        common = comparison.common_heuristics
        expected = stats.spearmanr(
            [comparison.diffs[name][0] for name in common],
            [PAPER_TABLE1[name][1] for name in common],
        ).correlation
        assert comparison.rank_correlation == expected

    def test_rank_correlation_of_constant_input_is_none(self):
        summaries = [make_summary(name, 1.0) for name in PAPER_TABLE1]
        assert compare_with_paper(summaries, PAPER_TABLE1).rank_correlation is None

    def test_rank_correlation_needs_no_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        summaries = [make_summary(name, -row[1]) for name, row in PAPER_TABLE1.items()]
        comparison = compare_with_paper(summaries, PAPER_TABLE1)
        assert comparison.rank_correlation == pytest.approx(-1.0)

    def test_format_comparison(self):
        summaries = [make_summary(name, row[1] * 0.8) for name, row in PAPER_TABLE1.items()]
        comparison = compare_with_paper(summaries, PAPER_TABLE1)
        text = format_comparison(comparison)
        assert "Spearman" in text
        assert "Y-IE" in text
        assert "Beat IE in the paper" in text
