"""Tests for the HTML campaign dashboard and the ``repro report`` command."""

import dataclasses
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.runner import run_campaign_spec
from repro.experiments.spec import builtin_spec
from repro.metrics import SERIES_NAMES
from repro.metrics.html import render_html_report

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def smoke_spec():
    return builtin_spec("smoke")


@pytest.fixture(scope="module")
def smoke_results(smoke_spec):
    return run_campaign_spec(smoke_spec, collect_metrics=True, metrics_stride=32)


class TestRenderHtmlReport:
    def test_full_report_structure(self, smoke_results, smoke_spec):
        html = render_html_report(smoke_results, smoke_spec)
        assert html.startswith("<!DOCTYPE html>")
        assert "Monte Carlo bands" in html
        assert "Gantt drill-down" in html
        # One band chart per (cell, series) with both heuristics overlaid.
        assert html.count("<svg") == len(SERIES_NAMES)
        for name in SERIES_NAMES:
            assert name in html
        for heuristic in smoke_spec.heuristics:
            assert heuristic in html
        # The Gantt section re-simulates one run per heuristic.
        assert html.count("<pre>") >= 2

    def test_no_results_is_friendly(self, smoke_spec):
        html = render_html_report([], smoke_spec)
        assert "no completed cells" in html
        assert "No stored runs carry metric series" in html
        assert "No successful runs" in html

    def test_results_without_metrics_still_render(self, smoke_spec):
        results = run_campaign_spec(smoke_spec)
        html = render_html_report(results, smoke_spec)
        assert "No stored runs carry metric series" in html
        assert "--collect-metrics" in html
        assert html.count("<pre>") >= 2  # tables and Gantt unaffected

    def test_missing_spec_degrades(self, smoke_results):
        html = render_html_report(smoke_results, None)
        assert "tables skipped" in html
        assert "Gantt drill-down skipped" in html
        assert "<svg" in html  # bands need no spec

    def test_gantt_disabled_or_capped(self, smoke_results, smoke_spec):
        assert "<pre>" not in render_html_report(
            smoke_results, smoke_spec, gantt_runs=0
        ).split("Gantt drill-down")[1]
        # The drill-down re-simulates only the slots it draws, so a spec
        # with a huge slot cap gets the same charts.
        huge = dataclasses.replace(smoke_spec, makespan_cap=1_000_000)
        gantt = render_html_report(smoke_results, smoke_spec).split("Gantt drill-down")[1]
        assert render_html_report(smoke_results, huge).split("Gantt drill-down")[1] == gantt

    @pytest.mark.parametrize(
        "golden, trials",
        [("gantt_smoke.html", (0, 1)), ("gantt_smoke_trial1.html", (1,))],
        ids=["whole-runs", "first-120-slots"],
    )
    def test_gantt_section_is_pinned(self, smoke_results, smoke_spec, golden, trials):
        """The drill-down's titles and charts, byte for byte.

        Trial 0's runs end inside the drawn window; trial 1's run past it,
        so only their first 120 slots are drawn.
        """
        chosen = [result for result in smoke_results if result.trial_index in trials]
        html = render_html_report(chosen, smoke_spec)
        section = html.split("<h2>Gantt drill-down</h2>\n", 1)[1]
        assert section == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_labels_are_escaped(self, smoke_results, smoke_spec):
        spooky = dataclasses.replace(smoke_spec, name="<b>smoke & mirrors</b>")
        html = render_html_report(smoke_results, spooky)
        assert "<b>smoke & mirrors</b>" not in html
        assert "&lt;b&gt;smoke &amp; mirrors&lt;/b&gt;" in html


class TestReportCommand:
    def run_campaign_cli(self, store, *extra):
        code = main(
            ["campaign", "--builtin", "smoke", "--store", str(store),
             "--report", "none", *extra]
        )
        assert code == 0

    def test_text_and_html_report(self, tmp_path, capsys):
        store = tmp_path / "store"
        self.run_campaign_cli(store, "--collect-metrics", "--metrics-stride", "32")
        assert main(["report", str(store)]) == 0
        out = capsys.readouterr().out
        assert "Campaign 'smoke'" in out
        assert "Heuristic" in out

        assert main(["report", str(store), "--html"]) == 0
        destination = store / "report.html"
        assert destination.exists()
        html = destination.read_text()
        assert "<svg" in html
        assert "pool_up" in html

    def test_html_output_path_and_gantt_flag(self, tmp_path):
        store = tmp_path / "store"
        self.run_campaign_cli(store, "--collect-metrics")
        output = tmp_path / "deep" / "dir" / "dash.html"
        assert main(["report", str(store), "--html", "--output", str(output),
                     "--gantt", "0"]) == 0
        assert output.exists()

    def test_empty_store_is_friendly(self, tmp_path, capsys):
        store = tmp_path / "store"
        self.run_campaign_cli(store, "--max-cells", "0")
        assert main(["report", str(store)]) == 0
        assert "no completed cells yet" in capsys.readouterr().out
        assert main(["report", str(store), "--html"]) == 0
        assert not (store / "report.html").exists()

    def test_missing_store_errors(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "report:" in capsys.readouterr().err

    def test_store_without_metrics_still_reports(self, tmp_path, capsys):
        store = tmp_path / "store"
        self.run_campaign_cli(store)
        assert main(["report", str(store), "--html"]) == 0
        html = (store / "report.html").read_text()
        assert "No stored runs carry metric series" in html
