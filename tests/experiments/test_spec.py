"""Tests for declarative campaign specs (spec.py) and AvailabilitySpec."""

import json

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.scenarios import AvailabilitySpec, ExperimentScenario, ScenarioParameters
from repro.experiments.spec import (
    BUILTIN_SPEC_NAMES,
    CampaignSpec,
    builtin_spec,
    load_spec,
)


def small_spec(**overrides):
    defaults = dict(
        name="unit",
        m_values=(4,),
        ncom_values=(5,),
        wmin_values=(1, 2),
        num_processors_values=(8,),
        heuristics=("IE", "RANDOM"),
        scenarios_per_cell=2,
        trials_per_scenario=3,
        iterations=3,
        makespan_cap=20_000,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestAvailabilitySpec:
    def test_default_is_paper_markov(self):
        spec = AvailabilitySpec()
        assert spec.kind == "markov"
        assert spec.is_default_markov()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError):
            AvailabilitySpec(kind="weibull")

    def test_trace_requires_path(self):
        with pytest.raises(ExperimentError):
            AvailabilitySpec(kind="trace")

    def test_range_normalisation_and_round_trip(self):
        spec = AvailabilitySpec.from_mapping(
            {"kind": "semi-markov", "mean_up": [25, 60], "up_shape": 0.6}
        )
        assert spec.get("mean_up") == (25.0, 60.0)
        assert spec.get("up_shape") == 0.6
        clone = AvailabilitySpec.from_mapping(spec.as_dict())
        assert clone == spec

    def test_bad_range_rejected(self):
        with pytest.raises(ExperimentError):
            AvailabilitySpec(kind="markov", parameters=(("stay_low", (1, 2, 3)),))

    def test_markov_range_parameter_rejected_with_clear_error(self):
        """[stay_low, stay_high] is already the range; a range-valued
        stay_low must raise ExperimentError, not a raw TypeError."""
        from repro.experiments.scenarios import ExperimentScenario, ScenarioParameters

        scenario = ExperimentScenario(
            params=ScenarioParameters(m=2, ncom=2, wmin=1, num_processors=2),
            scenario_index=0,
            campaign="unit",
            availability=AvailabilitySpec(
                kind="markov", parameters=(("stay_low", (0.3, 0.5)),)
            ),
        )
        with pytest.raises(ExperimentError, match="stay_low"):
            scenario.build_platform()


class TestCampaignSpec:
    def test_num_cells_matches_enumeration(self):
        spec = small_spec()
        cells = spec.cells()
        assert len(cells) == spec.num_cells() == 1 * 1 * 2 * 2 * 3 * 2

    def test_cell_indices_are_canonical(self):
        cells = small_spec().cells()
        assert [cell.index for cell in cells] == list(range(len(cells)))
        # Deterministic: a second enumeration yields identical keys.
        again = small_spec().cells()
        assert [cell.key() for cell in cells] == [cell.key() for cell in again]

    def test_cell_keys_unique(self):
        cells = small_spec(num_processors_values=(8, 10)).cells()
        assert len({cell.key() for cell in cells}) == len(cells)

    @pytest.mark.parametrize("shard_count", [1, 2, 3, 5, 7])
    def test_shards_partition_cells(self, shard_count):
        spec = small_spec()
        all_indices = {cell.index for cell in spec.cells()}
        seen = set()
        for shard_index in range(1, shard_count + 1):
            shard = {cell.index for cell in spec.shard_cells(shard_index, shard_count)}
            assert not (shard & seen), "shards must be disjoint"
            seen |= shard
        assert seen == all_indices, "shards must jointly cover every cell"

    def test_shards_are_balanced(self):
        spec = small_spec()
        sizes = [len(spec.shard_cells(i, 5)) for i in range(1, 6)]
        assert max(sizes) - min(sizes) <= 1

    def test_bad_shard_rejected(self):
        spec = small_spec()
        with pytest.raises(ExperimentError):
            spec.shard_cells(0, 2)
        with pytest.raises(ExperimentError):
            spec.shard_cells(3, 2)

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ExperimentError):
            small_spec(heuristics=("IE", "NOPE"))

    def test_round_trip_dict_and_hash(self):
        spec = small_spec()
        clone = CampaignSpec.from_dict(spec.as_dict())
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()

    def test_hash_changes_with_grid(self):
        assert small_spec().spec_hash() != small_spec(wmin_values=(1,)).spec_hash()

    def test_scenarios_follow_the_canonical_grid_order(self):
        """m, then platform size, ncom, wmin and scenario index; seeds fold in
        the spec name exactly like directly built scenarios."""
        spec = small_spec(num_processors_values=(8, 10))
        expected = [
            ExperimentScenario(
                ScenarioParameters(m=4, ncom=5, wmin=wmin, num_processors=processors),
                index,
                campaign="unit",
            )
            for processors in (8, 10)
            for wmin in (1, 2)
            for index in range(2)
        ]
        assert spec.scenarios() == expected
        assert [s.trial_seed(0) for s in spec.scenarios()] == [
            s.trial_seed(0) for s in expected
        ]

    @pytest.mark.parametrize("overrides", [
        {"m_values": (0,)},
        {"ncom_values": ()},
        {"wmin_values": ()},
        {"scenarios_per_cell": 0},
        {"trials_per_scenario": 0},
        {"iterations": 0},
        {"makespan_cap": 0},
    ])
    def test_invalid_grid_rejected(self, overrides):
        with pytest.raises(ExperimentError):
            small_spec(**overrides)


class TestBuiltins:
    def test_names_stable(self):
        assert "paper" in BUILTIN_SPEC_NAMES
        assert "smoke" in BUILTIN_SPEC_NAMES

    def test_paper_grid_is_section_7a(self):
        spec = builtin_spec("paper")
        assert spec.m_values == (5, 10)
        assert spec.ncom_values == (5, 10, 20)
        assert spec.wmin_values == tuple(range(1, 11))
        assert spec.num_processors_values == (20,)
        assert spec.scenarios_per_cell == spec.trials_per_scenario == 10
        # 2 * 3 * 10 * 10 * 10 = 6,000 problem instances, as the paper states.
        assert spec.num_cells() // len(spec.heuristics) == 6_000

    def test_unknown_builtin(self):
        with pytest.raises(ExperimentError):
            builtin_spec("nope")


class TestLoadSpec:
    def test_json_spec(self, tmp_path):
        payload = {
            "campaign": {
                "name": "file-json",
                "m": [4],
                "heuristics": ["IE"],
                "scenarios_per_cell": 1,
                "trials": 1,
                "iterations": 2,
                "makespan_cap": 10_000,
            },
            "grid": {"ncom": [5], "wmin": [1], "num_processors": [6]},
            "availability": {"kind": "markov"},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        spec = load_spec(path)
        assert spec.name == "file-json"
        assert spec.num_cells() == 1

    def test_toml_spec(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "spec.toml"
        path.write_text(
            "\n".join(
                [
                    "[campaign]",
                    'name = "file-toml"',
                    "m = [4]",
                    'heuristics = ["IE", "RANDOM"]',
                    "trials = 2",
                    "scenarios_per_cell = 1",
                    "iterations = 2",
                    "makespan_cap = 10000",
                    "[grid]",
                    "ncom = [5]",
                    "wmin = [1]",
                    "num_processors = [6]",
                ]
            )
        )
        spec = load_spec(path)
        assert spec.name == "file-toml"
        assert spec.heuristics == ("IE", "RANDOM")

    def test_example_smoke_spec_parses(self):
        pytest.importorskip("tomllib")
        from pathlib import Path

        examples = Path(__file__).resolve().parents[2] / "examples"
        spec = load_spec(examples / "campaign_smoke.toml")
        assert spec.name == "smoke"
        assert spec.num_cells() == 4

    def test_example_robustness_spec_parses(self):
        pytest.importorskip("tomllib")
        from pathlib import Path

        examples = Path(__file__).resolve().parents[2] / "examples"
        spec = load_spec(examples / "campaign_robustness.toml")
        assert spec.availability.kind == "semi-markov"
        assert spec.availability.get("mean_up") == (25.0, 60.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"campaign": {"frobnicate": 1}}))
        with pytest.raises(ExperimentError):
            load_spec(path)

    def _trace_spec_dir(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        trace_payload = {"type": "trace", "rows": ["u" * 50, "u" * 50]}
        (directory / "trace.json").write_text(json.dumps(trace_payload))
        spec_payload = {
            "campaign": {"name": "tr", "m": [2], "heuristics": ["IE"]},
            "grid": {"ncom": [2], "wmin": [1], "num_processors": [2]},
            "availability": {"kind": "trace", "path": "trace.json"},
        }
        path = directory / "spec.json"
        path.write_text(json.dumps(spec_payload))
        return path

    def test_relative_trace_path_resolved_at_runtime_only(self, tmp_path):
        spec = load_spec(self._trace_spec_dir(tmp_path / "a"))
        # The spec keeps the path as written (campaign identity is portable)…
        assert spec.availability.get("path") == "trace.json"
        assert spec.base_dir == str(tmp_path / "a")
        # …and scenarios resolve it against the spec file's directory.
        scenario = spec.scenarios()[0]
        resolved = scenario.availability.get("path")
        assert resolved == str((tmp_path / "a" / "trace.json").resolve())
        assert scenario.build_platform().num_processors == 2

    def test_trace_spec_hash_is_machine_portable(self, tmp_path):
        """Identical spec files in different directories must hash the same,
        or shards run from different checkouts could never be merged."""
        spec_a = load_spec(self._trace_spec_dir(tmp_path / "machine-a"))
        spec_b = load_spec(self._trace_spec_dir(tmp_path / "deeper" / "machine-b"))
        assert spec_a.spec_hash() == spec_b.spec_hash()
        assert spec_a == spec_b  # base_dir is runtime context, not identity

    def test_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_spec(tmp_path / "nope.json")
