"""Tests for table/figure formatters and result persistence."""

import json

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.figures import figure2_series, format_figure2
from repro.experiments.io import load_results, save_results
from repro.experiments.metrics import summarize_results
from repro.experiments.runner import InstanceResult
from repro.experiments.tables import PAPER_TABLE1, PAPER_TABLE2, format_summaries


def make_result(heuristic, makespan, *, success=True, wmin=1, scenario=0, trial=0):
    return InstanceResult(
        heuristic=heuristic,
        m=10,
        ncom=5,
        wmin=wmin,
        scenario_index=scenario,
        trial_index=trial,
        success=success,
        makespan=makespan if success else None,
        completed_iterations=10 if success else 0,
        total_restarts=1,
        total_configuration_changes=2,
    )


def synthetic_results():
    results = []
    for wmin in (1, 5, 10):
        for scenario in range(2):
            base = 100 * wmin + 10 * scenario
            results.append(make_result("IE", base, wmin=wmin, scenario=scenario))
            # Y-IE is better on easy instances, worse on the hardest ones.
            factor = 0.8 if wmin < 10 else 1.2
            results.append(
                make_result("Y-IE", int(base * factor), wmin=wmin, scenario=scenario)
            )
    return results


class TestPaperReferenceTables:
    def test_table1_contains_all_17_heuristics(self):
        assert len(PAPER_TABLE1) == 17
        assert PAPER_TABLE1["Y-IE"][1] == -11.82
        assert PAPER_TABLE1["RANDOM"][1] > 2000

    def test_table2_contains_best_8(self):
        assert len(PAPER_TABLE2) == 8
        assert set(PAPER_TABLE2) >= {"Y-IE", "P-IE", "IE"}


class TestFormatSummaries:
    def test_renders_rows(self):
        summaries = summarize_results(synthetic_results())
        text = format_summaries(summaries, title="Test table")
        assert text.startswith("Test table")
        assert "Y-IE" in text
        assert "%diff" in text


class TestFigure2:
    def test_series_structure(self):
        series = figure2_series(synthetic_results())
        assert set(series) == {"IE", "Y-IE"}
        assert [wmin for wmin, _ in series["Y-IE"]] == [1, 5, 10]
        # Reference series is identically zero.
        assert all(value == pytest.approx(0.0) for _, value in series["IE"])

    def test_crossover_shape(self):
        series = dict(figure2_series(synthetic_results())["Y-IE"])
        assert series[1] < 0  # better than IE on easy instances
        assert series[10] > 0  # worse on the hardest instances

    def test_missing_reference(self):
        results = [make_result("Y-IE", 100)]
        with pytest.raises(ExperimentError):
            figure2_series(results)

    def test_format_figure2(self):
        text = format_figure2(figure2_series(synthetic_results()))
        assert "wmin" in text.splitlines()[0]
        assert len(text.splitlines()) >= 5

    def test_failed_runs_are_ignored(self):
        results = synthetic_results() + [
            make_result("Y-IE", None, success=False, wmin=1, scenario=5)
        ]
        series = figure2_series(results)
        assert [wmin for wmin, _ in series["Y-IE"]] == [1, 5, 10]


class TestResultsIO:
    def test_round_trip(self, tmp_path):
        results = synthetic_results()
        path = save_results(results, tmp_path / "results.json", label="io-test")
        assert json.loads(path.read_text())["label"] == "io-test"
        assert load_results(path) == results

    def test_load_rejects_bad_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentError):
            load_results(path)

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"kind": "results", "format_version": 99}')
        with pytest.raises(ExperimentError):
            load_results(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_results(tmp_path / "absent.json")
