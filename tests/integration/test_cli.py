"""Tests for the command-line interface."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import _table_spec, build_parser, main
from repro.experiments.io import load_results
from repro.experiments.spec import builtin_spec
from repro.scheduling.registry import ALL_HEURISTICS, TABLE2_HEURISTICS

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

#: ``repro demo --heuristic IE --m 3 --processors 6 --iterations 1 --wmin 1
#: --seed 2`` (trailing spaces are slots where the worker is not enrolled).
DEMO_OUTPUT = (
    "IE: ok, makespan=9, iterations=1/1, restarts=0, reconfigs=1\n"
    "\n"
    "   0    5   \n"
    "P1 ········ \n"
    "P2 ·········\n"
    "P3 PPPPPDDCC\n"
    "P4 PPPPPDICC\n"
    "P5 ······   \n"
    "P6 ·········\n"
    "legend: P=program  D=data  C=compute  I=idle  ·=reclaimed  #=down  "
    "(blank = not enrolled)\n"
)

#: (command, --scale) -> (cell count, sha256 of the cell enumeration), as
#: recorded from the table commands before they became spec wrappers.
TABLE_ENUMERATIONS = {
    ("table1", "reduced"): (
        544, "79a89e54ff316d2879a38915fe82103ba0e83e156c02ab87c0a24bbb476bad5d"
    ),
    ("table1", "paper"): (
        51000, "e5db9d4fbda1e738eae6fd272f22bec872a23d2ca6ea507e63ee688b851bc92d"
    ),
    ("table2", "reduced"): (
        256, "56c9f1fc5704fdc35adff3a8358a7d8852da1d9892e44f1b5e13666e0e50d9fe"
    ),
    ("table2", "paper"): (
        24000, "096fa8d0f41b3bcd13cb7f239a3219255420df036a129510e9bbada834519dec"
    ),
    ("figure2", "reduced"): (
        256, "fcb6848440c360bd18026a78638b2a083b1db95392f7dde54281eb544953702f"
    ),
    ("figure2", "paper"): (
        24000, "9e816b5500c52d270e6f9848afe7df17f08dd7326e6dc1a2a57f760413990661"
    ),
}


class TestParser:
    def test_commands_exist(self):
        parser = build_parser()
        for command in ("table1", "table2", "figure2", "demo", "offline", "heuristics",
                        "campaign"):
            args = parser.parse_args([command] if command in ("heuristics",) else [command])
            assert args.command == command

    def test_campaign_options(self):
        parser = build_parser()
        args = parser.parse_args(
            ["table1", "--scale", "smoke", "--trials", "3", "--wmin", "1", "2",
             "--jobs", "2", "--estimator", "renewal"]
        )
        assert args.scale == "smoke"
        assert args.trials == 3
        assert args.wmin == [1, 2]
        assert args.estimator == "renewal"

    def test_campaign_spec_options(self):
        parser = build_parser()
        args = parser.parse_args(
            ["campaign", "--builtin", "smoke", "--store", "runs/x", "--shard", "2/4",
             "--max-cells", "7", "--report", "none"]
        )
        assert args.builtin == "smoke"
        assert args.shard == "2/4"
        assert args.max_cells == 7

    @pytest.mark.parametrize(
        "scale, builtin", [("smoke", "smoke"), ("reduced", "reduced"), ("paper", "paper-table1")]
    )
    @pytest.mark.parametrize(
        "command, m, heuristics",
        [("table1", 5, ALL_HEURISTICS), ("table2", 10, TABLE2_HEURISTICS),
         ("figure2", 10, TABLE2_HEURISTICS)],
    )
    def test_table_commands_build_the_builtin_spec(self, command, m, heuristics, scale, builtin):
        args = build_parser().parse_args([command, "--scale", scale])
        expected = replace(
            builtin_spec(builtin), name=command, m_values=(m,), heuristics=heuristics
        )
        assert _table_spec(args) == expected

    def test_table_command_overrides_reach_the_spec(self):
        args = build_parser().parse_args([
            "table2", "--scale", "smoke", "--scenarios", "3", "--trials", "4",
            "--wmin", "2", "3", "--ncom", "10", "--cap", "999", "--iterations", "5",
            "--estimator", "renewal", "--heuristics", "ie", "Y-IE",
        ])
        assert _table_spec(args) == replace(
            builtin_spec("smoke"),
            name="table2",
            m_values=(10,),
            heuristics=("IE", "Y-IE"),
            estimator="renewal",
            scenarios_per_cell=3,
            trials_per_scenario=4,
            wmin_values=(2, 3),
            ncom_values=(10,),
            makespan_cap=999,
            iterations=5,
        )

    @pytest.mark.parametrize("command, scale", sorted(TABLE_ENUMERATIONS))
    def test_table_commands_keep_their_cells_and_seeds(self, command, scale):
        """Pinned digests of every cell's heuristic, scenario, platform and
        trial seed, plus the run length and cap, as the commands enumerated
        them before they became spec wrappers."""
        spec = _table_spec(build_parser().parse_args([command, "--scale", scale]))
        rows = [
            [
                cell.heuristic,
                cell.scenario.label(),
                cell.scenario.params.num_processors,
                cell.scenario.platform_seed(),
                cell.scenario.trial_seed(cell.trial),
            ]
            for cell in spec.cells()
        ]
        payload = json.dumps([rows, spec.iterations, spec.makespan_cap])
        assert (len(rows), hashlib.sha256(payload.encode()).hexdigest()) == (
            TABLE_ENUMERATIONS[command, scale]
        )

    def test_merge_options(self):
        parser = build_parser()
        args = parser.parse_args(["merge", "a", "b", "--output", "m"])
        assert args.stores == ["a", "b"]
        assert args.output == "m"

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--builtin", "smoke", "--store", "runs/x"],
            ["merge", "a", "b", "--output", "m"],
            ["serve"],
        ],
        ids=["campaign", "merge", "serve"],
    )
    def test_backend_option_is_gone(self, argv, capsys):
        # Stores have one format; no command selects a backend any more.
        parser = build_parser()
        parser.parse_args(argv)
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv + ["--backend", "jsonl"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend jsonl" in capsys.readouterr().err

    def test_spec_and_builtin_mutually_exclusive(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["campaign", "--spec", "x.toml", "--builtin", "smoke"])

    def test_bad_shard_format(self):
        from repro.cli import _parse_shard
        from repro.exceptions import ExperimentError

        assert _parse_shard("2/4") == (2, 4)
        with pytest.raises(ExperimentError):
            _parse_shard("2-4")


class TestCampaignCommandErrors:
    def test_campaign_without_source_errors(self, capsys):
        assert main(["campaign"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_status_without_store_errors(self, capsys):
        assert main(["campaign", "--builtin", "smoke", "--status"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_status_on_missing_store_does_not_create_it(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["campaign", "--builtin", "smoke", "--store", str(missing),
                     "--status"]) == 2
        assert "campaign:" in capsys.readouterr().err
        assert not missing.exists()

    def test_status_on_sqlite_store_points_to_the_migration(self, tmp_path, capsys):
        from repro.experiments.store import ResultStore

        store = tmp_path / "old"
        ResultStore.create(store, builtin_spec("smoke")).close()
        manifest_path = store / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["backend"] = "sqlite"
        manifest_path.write_text(json.dumps(manifest))
        assert main(["campaign", "--builtin", "smoke", "--store", str(store),
                     "--status"]) == 2
        assert "Migrating sqlite stores" in capsys.readouterr().err
        assert sorted(path.name for path in store.iterdir()) == ["manifest.json"]

    def test_list_builtins(self, capsys):
        assert main(["campaign", "--list-builtins"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out and "smoke" in out


class TestCommands:
    def test_heuristics_lists_all(self, capsys):
        assert main(["heuristics"]) == 0
        out = capsys.readouterr().out
        # The listing covers the paper's seventeen AND the extensions, with
        # family / parameter / description columns.
        assert "RANDOM" in out
        assert "Y-IE" in out
        assert "THRESHOLD-IE" in out
        assert "threshold: float = 0.5" in out
        assert "alias: tau" in out
        assert "proactive" in out

    def test_heuristics_names_only_matches_registry(self, capsys):
        from repro.scheduling.registry import available_heuristics

        assert main(["heuristics", "--names-only"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines() == available_heuristics()

    def test_heuristics_family_filter(self, capsys):
        assert main(["heuristics", "--family", "extension", "--names-only"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines() == ["FAST", "THRESHOLD-IE", "STICKY"]
        assert main(["heuristics", "--family", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown family" in err

    def test_models_lists_substrates(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for kind in ("markov", "semi-markov", "diurnal", "trace",
                     "degradation", "correlated", "churn"):
            assert kind in out
        # Full per-parameter specs: name, type, default, aliases.
        assert "mean_up" in out
        assert "parameter" in out and "default" in out and "aliases" in out
        assert "(required)" in out          # trace substrates' path parameter
        assert "wear_rate" in out
        assert "[0.02, 0.05]" in out        # range default, spec-file spelling
        assert "kind" in out                # the fitted substrate's model alias

    def test_models_family_filter(self, capsys):
        assert main(["models", "--family", "hazard", "--names-only"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines() == ["degradation", "correlated", "churn"]
        assert main(["models", "--family", "bogus"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_models_names_only(self, capsys):
        assert main(["models", "--names-only"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines() == [
            "markov", "semi-markov", "diurnal", "trace",
            "trace-catalog", "trace-bootstrap", "fitted",
            "degradation", "correlated", "churn",
        ]

    def test_traces_pipeline_end_to_end(self, capsys, tmp_path):
        """convert -> stats -> fit -> sample over the shipped example dataset."""
        dataset = str(EXAMPLES_DIR / "traces" / "desktop_week.csv")
        converted = tmp_path / "week.json"
        assert main([
            "traces", "convert", dataset, "--slot", "900", "--output", str(converted),
        ]) == 0
        assert "12 processors x 672 slots" in capsys.readouterr().out

        assert main(["traces", "stats", str(converted), "--censor-edges"]) == 0
        out = capsys.readouterr().out
        assert "P0" in out and "pooled" in out

        assert main(["traces", "fit", str(converted), "--kind", "all"]) == 0
        out = capsys.readouterr().out
        for kind in ("markov", "semi-markov", "diurnal"):
            assert kind in out
        assert "KS" in out

        sampled = tmp_path / "sampled.json"
        assert main([
            "traces", "sample", str(converted), "--kind", "semi-markov",
            "--processors", "4", "--length", "300", "--seed", "5",
            "--output", str(sampled),
        ]) == 0
        payload = json.loads(sampled.read_text())
        assert payload["type"] == "trace"
        assert len(payload["rows"]) == 4
        assert len(payload["rows"][0]) == 300

    def test_traces_catalog_input_requires_dataset(self, capsys):
        catalog = str(EXAMPLES_DIR / "traces")
        assert main(["traces", "stats", catalog]) == 2
        assert "--dataset" in capsys.readouterr().err
        assert main(["traces", "stats", catalog, "--dataset", "desktop_week"]) == 0
        assert "pooled" in capsys.readouterr().out

    def test_traces_bad_input_is_reported(self, capsys, tmp_path):
        missing = tmp_path / "nope.csv"
        assert main(["traces", "stats", str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_traces_sample_rejects_zero_counts(self, capsys, tmp_path):
        dataset = str(EXAMPLES_DIR / "traces" / "desktop_week.csv")
        assert main([
            "traces", "sample", dataset, "--slot", "900", "--processors", "0",
            "--output", str(tmp_path / "out.json"),
        ]) == 2
        assert "--processors" in capsys.readouterr().err

    def test_traces_sample_csv_output_slot_round_trips(self, capsys, tmp_path):
        dataset = str(EXAMPLES_DIR / "traces" / "desktop_week.csv")
        out = tmp_path / "boot.csv"
        assert main([
            "traces", "sample", dataset, "--slot", "900", "--kind", "bootstrap",
            "--block", "96", "--processors", "4", "--seed", "3",
            "--output", str(out), "--output-slot", "900",
        ]) == 0
        capsys.readouterr()
        # The sampled CSV reloads at the same slot duration it was written at.
        assert main(["traces", "stats", str(out), "--slot", "900"]) == 0
        assert "4 processors x 672 slots" in capsys.readouterr().out

    def test_offline_command(self, capsys):
        assert main(["offline", "--left", "5", "--right", "6", "--a", "2", "--b", "2",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "OFF-LINE-COUPLED" in out

    @pytest.mark.slow
    def test_demo_command(self, capsys):
        assert main(["demo", "--heuristic", "IE", "--m", "3", "--processors", "6",
                     "--iterations", "1", "--wmin", "1", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "legend" in out  # the Gantt chart was printed

    def test_demo_output_is_pinned(self, capsys):
        """The demo's summary line and Gantt chart, byte for byte."""
        assert main(["demo", "--heuristic", "IE", "--m", "3", "--processors", "6",
                     "--iterations", "1", "--wmin", "1", "--seed", "2"]) == 0
        assert capsys.readouterr().out == DEMO_OUTPUT

    @pytest.mark.slow
    def test_table1_smoke(self, capsys, tmp_path):
        output = tmp_path / "t1.json"
        code = main([
            "table1", "--scale", "smoke", "--heuristics", "IE", "RANDOM",
            "--iterations", "2", "--output", str(output),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "RANDOM" in out
        payload = json.loads(output.read_text())
        assert payload["label"] == "table1"
        results = load_results(output)
        # The builtin smoke grid: one scenario, two trials, two heuristics.
        assert len(results) == 4
        assert {result.heuristic for result in results} == {"IE", "RANDOM"}
        assert {result.num_processors for result in results} == {8}

    @pytest.mark.slow
    def test_figure2_smoke(self, capsys):
        code = main([
            "figure2", "--scale", "smoke", "--heuristics", "IE", "Y-IE",
            "--iterations", "2", "--wmin", "1", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wmin" in out
