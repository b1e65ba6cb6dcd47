"""Tests for the paper's comparison metrics (#fails, %diff, %wins, %wins30, stdv)."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.metrics import (
    HeuristicSummary,
    relative_difference,
    summarize_results,
)
from repro.experiments.runner import InstanceResult


def make_result(heuristic, makespan, *, success=True, m=5, ncom=5, wmin=1,
                scenario=0, trial=0):
    return InstanceResult(
        heuristic=heuristic,
        m=m,
        ncom=ncom,
        wmin=wmin,
        scenario_index=scenario,
        trial_index=trial,
        success=success,
        makespan=makespan if success else None,
        completed_iterations=10 if success else 3,
        total_restarts=0,
        total_configuration_changes=0,
    )


class TestRelativeDifference:
    def test_sign_convention(self):
        assert relative_difference(80.0, 100.0) == pytest.approx(-0.25)
        assert relative_difference(150.0, 100.0) == pytest.approx(0.5)
        assert relative_difference(100.0, 100.0) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            relative_difference(0.0, 10.0)


class TestSummarizeResults:
    def test_reference_required(self):
        results = [make_result("Y-IE", 100)]
        with pytest.raises(ExperimentError):
            summarize_results(results)

    def test_reference_has_zero_diff_and_full_wins(self):
        results = [
            make_result("IE", 100, scenario=s, trial=t)
            for s in range(2) for t in range(2)
        ]
        summaries = summarize_results(results)
        assert len(summaries) == 1
        row = summaries[0]
        assert row.heuristic == "IE"
        assert row.pct_diff == pytest.approx(0.0)
        assert row.pct_wins == pytest.approx(100.0)
        assert row.pct_wins30 == pytest.approx(100.0)
        assert row.stdv == pytest.approx(0.0)

    def test_better_heuristic_has_negative_diff(self):
        results = []
        for scenario in range(3):
            for trial in range(2):
                results.append(make_result("IE", 100, scenario=scenario, trial=trial))
                results.append(make_result("Y-IE", 80, scenario=scenario, trial=trial))
        summaries = {s.heuristic: s for s in summarize_results(results)}
        assert summaries["Y-IE"].pct_diff == pytest.approx(-25.0)
        assert summaries["Y-IE"].pct_wins == pytest.approx(100.0)
        assert summaries["Y-IE"].fails == 0

    def test_sorted_best_first(self):
        results = []
        for scenario in range(2):
            results.append(make_result("IE", 100, scenario=scenario))
            results.append(make_result("GOOD", 50, scenario=scenario))
            results.append(make_result("BAD", 200, scenario=scenario))
        names = [s.heuristic for s in summarize_results(results)]
        assert names == ["GOOD", "IE", "BAD"]

    def test_wins30_margin(self):
        results = [
            make_result("IE", 100),
            make_result("H", 125),
        ]
        summaries = {s.heuristic: s for s in summarize_results(results)}
        assert summaries["H"].pct_wins == 0.0
        assert summaries["H"].pct_wins30 == 100.0
        # 25% slower on the only scenario.
        assert summaries["H"].pct_diff == pytest.approx(25.0)

    def test_failed_heuristic_trial_counts_as_loss_and_fail(self):
        results = [
            make_result("IE", 100, trial=0),
            make_result("IE", 100, trial=1),
            make_result("H", 90, trial=0),
            make_result("H", None, success=False, trial=1),
        ]
        summaries = {s.heuristic: s for s in summarize_results(results)}
        assert summaries["H"].fails == 1
        assert summaries["H"].pct_wins == pytest.approx(50.0)

    def test_reference_failure_excludes_trial(self):
        results = [
            make_result("IE", None, success=False, trial=0),
            make_result("IE", 100, trial=1),
            make_result("H", 50, trial=0),
            make_result("H", 100, trial=1),
        ]
        summaries = {s.heuristic: s for s in summarize_results(results)}
        # Trial 0 is dropped entirely (the reference failed there).
        assert summaries["H"].pct_wins == pytest.approx(100.0)
        assert summaries["H"].pct_diff == pytest.approx(0.0)

    def test_per_scenario_averaging(self):
        # Scenario 0: H is 2x slower; scenario 1: H is 2x faster -> the
        # per-scenario relative differences (+1.0 and -1.0) average to zero.
        results = [
            make_result("IE", 100, scenario=0),
            make_result("H", 200, scenario=0),
            make_result("IE", 200, scenario=1),
            make_result("H", 100, scenario=1),
        ]
        summaries = {s.heuristic: s for s in summarize_results(results)}
        assert summaries["H"].pct_diff == pytest.approx(0.0)
        assert summaries["H"].stdv == pytest.approx(1.0)

    def test_heuristic_with_no_successes(self):
        results = [
            make_result("IE", 100),
            make_result("H", None, success=False),
        ]
        summaries = {s.heuristic: s for s in summarize_results(results)}
        assert summaries["H"].pct_diff is None
        assert summaries["H"].pct_wins == 0.0
        assert summaries["H"].fails == 1

    def test_as_row(self):
        summary = HeuristicSummary(
            heuristic="X", fails=1, pct_diff=-10.123, pct_wins=70.0, pct_wins30=90.0,
            stdv=0.456, num_scenarios=3, num_trials=6,
        )
        row = summary.as_row()
        assert row[0] == "X"
        assert row[2] == -10.12
