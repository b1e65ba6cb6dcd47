"""Tests for the CI benchmark-regression gate (benchmarks/check_regression.py)."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "benchmarks" / "check_regression.py"


def make_report(scale=1.0):
    runs = []
    for heuristic in ("RANDOM", "IE"):
        for mode in ("kernel", "multiheuristic"):
            runs.append(
                {
                    "mode": mode,
                    "heuristic": heuristic,
                    "workers": 20,
                    "slots": 100_000,
                    "wall_seconds": 1.0,
                    "slots_per_second": scale * (40_000 if mode == "kernel" else 120_000),
                }
            )
    return {"benchmark": "simulator_throughput", "python": "3.11", "runs": runs}


def run_gate(tmp_path, baseline, current, *extra):
    baseline_path = tmp_path / "baseline.json"
    current_path = tmp_path / "current.json"
    baseline_path.write_text(json.dumps(baseline))
    current_path.write_text(json.dumps(current))
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--baseline", str(baseline_path),
         "--current", str(current_path), *extra],
        capture_output=True,
        text=True,
    )


class TestGate:
    def test_identical_reports_pass(self, tmp_path):
        proc = run_gate(tmp_path, make_report(), make_report())
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_small_slowdown_tolerated(self, tmp_path):
        proc = run_gate(tmp_path, make_report(), make_report(scale=0.80))
        assert proc.returncode == 0, proc.stderr

    def test_large_regression_fails(self, tmp_path):
        proc = run_gate(tmp_path, make_report(), make_report(scale=0.60))
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout
        assert "FAIL" in proc.stderr

    def test_speedup_passes(self, tmp_path):
        proc = run_gate(tmp_path, make_report(), make_report(scale=2.0))
        assert proc.returncode == 0

    def test_threshold_is_configurable(self, tmp_path):
        proc = run_gate(tmp_path, make_report(), make_report(scale=0.80),
                        "--max-drop", "0.10")
        assert proc.returncode == 1

    def test_disjoint_reports_error(self, tmp_path):
        other = make_report()
        for run in other["runs"]:
            run["heuristic"] = "Y-IE"
        proc = run_gate(tmp_path, make_report(), other)
        assert proc.returncode == 2

    def test_missing_baseline_errors(self, tmp_path):
        current_path = tmp_path / "current.json"
        current_path.write_text(json.dumps(make_report()))
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--baseline", str(tmp_path / "nope.json"),
             "--current", str(current_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_committed_baseline_passes_against_itself(self):
        baseline = REPO_ROOT / "benchmarks" / "results" / "BENCH_simulator.json"
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--current", str(baseline)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


def make_analysis_report(scale=1.0):
    runs = []
    for case in ("group_quantities_cold_8of20", "incremental_allocation_m10"):
        for variant in ("scalar", "batch"):
            runs.append(
                {
                    "case": case,
                    "variant": variant,
                    "ops": 256,
                    "wall_seconds": 0.01,
                    "ops_per_second": scale * (50_000 if variant == "batch" else 20_000),
                }
            )
    return {"benchmark": "analysis_throughput", "python": "3.11", "runs": runs}


class TestMultiBenchmarkGate:
    def run_pairs(self, tmp_path, pairs, *extra):
        arguments = [sys.executable, str(SCRIPT)]
        for index, (baseline, current) in enumerate(pairs):
            baseline_path = tmp_path / f"baseline{index}.json"
            current_path = tmp_path / f"current{index}.json"
            baseline_path.write_text(json.dumps(baseline))
            current_path.write_text(json.dumps(current))
            arguments += ["--pair", str(baseline_path), str(current_path)]
        return subprocess.run(
            arguments + list(extra), capture_output=True, text=True
        )

    def test_analysis_report_gated(self, tmp_path):
        proc = self.run_pairs(
            tmp_path, [(make_analysis_report(), make_analysis_report(scale=0.5))]
        )
        assert proc.returncode == 1
        assert "ops_per_second" in proc.stdout
        assert "REGRESSION" in proc.stdout

    def test_two_healthy_pairs_pass(self, tmp_path):
        proc = self.run_pairs(
            tmp_path,
            [
                (make_report(), make_report(scale=1.1)),
                (make_analysis_report(), make_analysis_report(scale=0.9)),
            ],
        )
        assert proc.returncode == 0, proc.stderr
        assert "simulator_throughput" in proc.stdout
        assert "analysis_throughput" in proc.stdout

    def test_regression_in_second_pair_fails(self, tmp_path):
        proc = self.run_pairs(
            tmp_path,
            [
                (make_report(), make_report()),
                (make_analysis_report(), make_analysis_report(scale=0.5)),
            ],
        )
        assert proc.returncode == 1

    def test_mismatched_report_kinds_error(self, tmp_path):
        proc = self.run_pairs(tmp_path, [(make_report(), make_analysis_report())])
        assert proc.returncode == 2
        assert "cannot compare" in proc.stderr

    def test_unknown_report_kind_errors(self, tmp_path):
        bogus = {"benchmark": "mystery", "runs": []}
        proc = self.run_pairs(tmp_path, [(bogus, bogus)])
        assert proc.returncode == 2

    def test_summary_markdown_written(self, tmp_path):
        summary = tmp_path / "summary.md"
        proc = self.run_pairs(
            tmp_path,
            [
                (make_report(), make_report(scale=0.5)),
                (make_analysis_report(), make_analysis_report()),
            ],
            "--summary", str(summary),
        )
        assert proc.returncode == 1  # regression still fails the gate
        text = summary.read_text()
        assert "## Benchmark regression gate" in text
        assert "### simulator_throughput (slots_per_second)" in text
        assert "### analysis_throughput (ops_per_second)" in text
        assert ":warning:" in text  # regressed rows are flagged
        assert "| RANDOM kernel |" in text

    def test_committed_analysis_baseline_passes_against_itself(self):
        baseline = REPO_ROOT / "benchmarks" / "results" / "BENCH_analysis.json"
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--pair", str(baseline), str(baseline)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


def make_fingerprint(**overrides):
    fingerprint = {
        "cpu_model": "Test CPU @ 2.0GHz",
        "cpu_count": 4,
        "platform": "x86_64",
        "python": "3.11.0",
        "numpy": "2.0.0",
        "numba": None,
        "kernel_backend": "numpy",
    }
    fingerprint.update(overrides)
    return fingerprint


class TestFingerprintWarnings:
    def test_mismatch_warns_but_does_not_fail(self, tmp_path):
        baseline = make_report()
        baseline["machine"] = make_fingerprint()
        current = make_report()
        current["machine"] = make_fingerprint(
            cpu_model="Other CPU", numba="0.60.0", kernel_backend="numba"
        )
        proc = run_gate(tmp_path, baseline, current)
        assert proc.returncode == 0, proc.stderr
        assert "WARNING" in proc.stdout
        assert "fingerprint mismatch" in proc.stdout
        assert "cpu_model" in proc.stdout
        assert "kernel_backend" in proc.stdout

    def test_matching_fingerprints_stay_silent(self, tmp_path):
        baseline = make_report()
        baseline["machine"] = make_fingerprint()
        current = make_report()
        current["machine"] = make_fingerprint()
        proc = run_gate(tmp_path, baseline, current)
        assert proc.returncode == 0
        assert "WARNING" not in proc.stdout

    def test_reports_without_fingerprint_stay_silent(self, tmp_path):
        proc = run_gate(tmp_path, make_report(), make_report())
        assert proc.returncode == 0
        assert "WARNING" not in proc.stdout

    def test_mismatch_does_not_mask_a_regression(self, tmp_path):
        baseline = make_report()
        baseline["machine"] = make_fingerprint()
        current = make_report(scale=0.5)
        current["machine"] = make_fingerprint(cpu_count=96)
        proc = run_gate(tmp_path, baseline, current)
        assert proc.returncode == 1
        assert "WARNING" in proc.stdout
        assert "FAIL" in proc.stderr


class TestCommittedSimulatorBaseline:
    def test_rows_fingerprint_and_aggregate_formula(self):
        """Acceptance pins: kernel + multiheuristic rows are tracked, the
        removed engine drivers are not, and the report carries a machine
        fingerprint."""
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "results" / "BENCH_simulator.json").read_text()
        )
        modes = {run["mode"] for run in baseline["runs"]}
        assert {"kernel", "multiheuristic"} <= modes
        assert not {"perslot", "block", "legacy"} & modes
        machine = baseline["machine"]
        for field in ("cpu_model", "cpu_count", "python", "numpy", "numba",
                      "kernel_backend"):
            assert field in machine, field
        cell = next(run for run in baseline["runs"] if run["mode"] == "multiheuristic")
        assert cell["throughput_formula"] == "len(heuristics) * slots / wall_seconds"
        assert len(cell["heuristics"]) >= 8
        expected = len(cell["heuristics"]) * cell["slots"] / cell["wall_seconds"]
        assert abs(cell["slots_per_second"] - expected) < 1.0
        # The one-pass cell must beat the per-heuristic solo sweep.
        for speedup in baseline["speedup_multiheuristic_over_kernel"].values():
            assert speedup > 1.0


    def test_proactive_rows_are_tracked(self):
        """The Y-IE, P-IE and E-IAY kernel rows are committed, so the gate
        (keyed on heuristic and mode) covers proactive throughput."""
        sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
        try:
            from bench_simulator import PROACTIVE_HEURISTICS, PROACTIVE_SLOTS
        finally:
            sys.path.pop(0)
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "results" / "BENCH_simulator.json").read_text()
        )
        rows = {
            run["heuristic"]: run for run in baseline["runs"] if run["mode"] == "kernel"
        }
        for heuristic in PROACTIVE_HEURISTICS:
            assert rows[heuristic]["slots"] == PROACTIVE_SLOTS
            assert rows[heuristic]["slots_per_second"] > 0


class TestCompareReports:
    def test_compare_function_importable(self):
        sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
        try:
            from check_regression import compare_reports

            failures, lines = compare_reports(make_report(), make_report(scale=0.5))
            assert len(failures) == 4
            assert any("REGRESSION" in line for line in lines)
        finally:
            sys.path.pop(0)


def make_overhead_report(scale=1.0, overheads=(2.0, 4.0), mode="metrics_overhead"):
    """A simulator report carrying both throughput and overhead rows."""
    prefix = "collector" if mode == "metrics_overhead" else "tracer"
    report = make_report(scale=scale)
    for heuristic, overhead in zip(("RANDOM", "IE"), overheads):
        report["runs"].append(
            {
                "mode": mode,
                "heuristic": heuristic,
                "workers": 20,
                "slots": 100_000,
                f"{prefix}_off_slots_per_second": 40_000.0,
                f"{prefix}_on_slots_per_second": 40_000.0 / (1 + overhead / 100.0),
                "overhead_percent": overhead,
            }
        )
    return report


class TestOverheadGate:
    def test_identical_overheads_pass(self, tmp_path):
        proc = run_gate(tmp_path, make_overhead_report(), make_overhead_report())
        assert proc.returncode == 0, proc.stderr
        assert "+0.00pp" in proc.stdout

    def test_overhead_rows_do_not_feed_throughput_gate(self, tmp_path):
        """overhead_percent rows are compared as shifts, never as slowdowns —
        a tiny on-throughput must not trip the ratio check."""
        current = make_overhead_report()
        for run in current["runs"]:
            if run["mode"] == "metrics_overhead":
                run["collector_on_slots_per_second"] = 1.0
        proc = run_gate(tmp_path, make_overhead_report(), current)
        assert proc.returncode == 0, proc.stderr

    def test_overhead_increase_beyond_limit_fails(self, tmp_path):
        proc = run_gate(
            tmp_path, make_overhead_report(), make_overhead_report(overheads=(32.0, 4.0))
        )
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout
        assert "two-sided limit 25pp" in proc.stderr

    def test_overhead_decrease_beyond_limit_fails(self, tmp_path):
        """A large *drop* is suspicious too: it usually means the collector
        silently stopped collecting, so the gate is two-sided."""
        proc = run_gate(
            tmp_path,
            make_overhead_report(overheads=(28.0, 4.0)),
            make_overhead_report(overheads=(1.0, 4.0)),
        )
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout

    def test_small_shift_tolerated_both_ways(self, tmp_path):
        proc = run_gate(
            tmp_path,
            make_overhead_report(overheads=(2.0, 14.0)),
            make_overhead_report(overheads=(12.0, 4.0)),
        )
        assert proc.returncode == 0, proc.stderr

    def test_summary_includes_overhead_rows(self, tmp_path):
        summary = tmp_path / "summary.md"
        proc = run_gate(
            tmp_path, make_overhead_report(), make_overhead_report(),
            "--summary", str(summary),
        )
        assert proc.returncode == 0, proc.stderr
        text = summary.read_text()
        assert "metrics_overhead" in text
        assert "pp" in text

    def test_committed_baseline_overhead_under_budget(self):
        """Acceptance pin: the collector costs <5% on the 20-worker bench,
        measured and committed for both gated heuristics."""
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "results" / "BENCH_simulator.json").read_text()
        )
        rows = [run for run in baseline["runs"] if run["mode"] == "metrics_overhead"]
        assert {row["heuristic"] for row in rows} == {"RANDOM", "IE"}
        for row in rows:
            assert 0.0 <= row["overhead_percent"] < 5.0, row
            ratio = (
                row["collector_off_slots_per_second"]
                / row["collector_on_slots_per_second"]
            )
            assert abs(100.0 * (ratio - 1.0) - row["overhead_percent"]) < 0.01
        assert set(baseline["metrics_overhead_percent"]) == {"RANDOM", "IE"}


class TestTelemetryOverheadGate:
    """telemetry_overhead rows ride the same two-sided gate as metrics_overhead."""

    def test_telemetry_rows_partition_as_overhead(self, tmp_path):
        """The tracer rows never feed the throughput ratio check."""
        current = make_overhead_report(mode="telemetry_overhead")
        for run in current["runs"]:
            if run["mode"] == "telemetry_overhead":
                run["tracer_on_slots_per_second"] = 1.0
        proc = run_gate(tmp_path, make_overhead_report(mode="telemetry_overhead"), current)
        assert proc.returncode == 0, proc.stderr
        assert "+0.00pp" in proc.stdout

    def test_telemetry_shift_beyond_limit_fails_both_ways(self, tmp_path):
        for base, fresh in (((2.0, 4.0), (32.0, 4.0)), ((28.0, 4.0), (1.0, 4.0))):
            proc = run_gate(
                tmp_path,
                make_overhead_report(overheads=base, mode="telemetry_overhead"),
                make_overhead_report(overheads=fresh, mode="telemetry_overhead"),
            )
            assert proc.returncode == 1
            assert "REGRESSION" in proc.stdout

    def test_committed_baseline_tracer_under_budget(self):
        """Acceptance pin: tracing costs <5% on the 20-worker bench — and the
        off side is the exact pre-telemetry path, so a large negative
        overhead would be just as alarming."""
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "results" / "BENCH_simulator.json").read_text()
        )
        rows = [run for run in baseline["runs"] if run["mode"] == "telemetry_overhead"]
        assert {row["heuristic"] for row in rows} == {"RANDOM", "IE"}
        for row in rows:
            assert -5.0 < row["overhead_percent"] < 5.0, row
            ratio = (
                row["tracer_off_slots_per_second"] / row["tracer_on_slots_per_second"]
            )
            assert abs(100.0 * (ratio - 1.0) - row["overhead_percent"]) < 0.01
        assert set(baseline["telemetry_overhead_percent"]) == {"RANDOM", "IE"}
