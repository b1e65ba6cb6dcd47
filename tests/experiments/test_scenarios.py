"""Tests for experimental scenarios and the spec's scenario grid."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import CampaignSpec, ExperimentScenario, ScenarioParameters


class TestScenarioParameters:
    def test_basic(self):
        params = ScenarioParameters(m=5, ncom=10, wmin=3)
        assert params.label() == "m5_ncom10_wmin3"
        spec = params.platform_spec()
        assert spec.ncom == 10
        assert spec.wmin == 3
        assert spec.tprog == 15

    @pytest.mark.parametrize("kwargs", [
        {"m": 0, "ncom": 1, "wmin": 1},
        {"m": 1, "ncom": 0, "wmin": 1},
        {"m": 1, "ncom": 1, "wmin": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ExperimentError):
            ScenarioParameters(**kwargs)


class TestExperimentScenario:
    def test_platform_is_deterministic(self):
        scenario = ExperimentScenario(ScenarioParameters(m=5, ncom=5, wmin=1), 0)
        a = scenario.build_platform()
        b = scenario.build_platform()
        assert [p.speed for p in a] == [p.speed for p in b]

    def test_different_scenarios_have_different_platforms(self):
        params = ScenarioParameters(m=5, ncom=5, wmin=1)
        a = ExperimentScenario(params, 0).build_platform()
        b = ExperimentScenario(params, 1).build_platform()
        assert [p.speed for p in a] != [p.speed for p in b] or not all(
            (x.availability.matrix == y.availability.matrix).all()
            for x, y in zip(a.processors, b.processors)
        )

    def test_trial_seeds_differ(self):
        scenario = ExperimentScenario(ScenarioParameters(m=5, ncom=5, wmin=1), 0)
        assert scenario.trial_seed(0) != scenario.trial_seed(1)
        assert scenario.trial_seed(0) == scenario.trial_seed(0)

    def test_campaign_label_changes_seeds(self):
        params = ScenarioParameters(m=5, ncom=5, wmin=1)
        a = ExperimentScenario(params, 0, campaign="x")
        b = ExperimentScenario(params, 0, campaign="y")
        assert a.platform_seed() != b.platform_seed()

    def test_application(self):
        scenario = ExperimentScenario(ScenarioParameters(m=7, ncom=5, wmin=1), 2)
        app = scenario.build_application(iterations=4)
        assert app.tasks_per_iteration == 7
        assert app.iterations == 4

    def test_platform_matches_parameters(self):
        scenario = ExperimentScenario(ScenarioParameters(m=5, ncom=20, wmin=2, num_processors=12), 0)
        platform = scenario.build_platform()
        assert platform.num_processors == 12
        assert platform.ncom == 20
        assert platform.tdata == 2
        assert platform.tprog == 10


class TestSpecScenarios:
    def test_grid_size(self):
        spec = CampaignSpec(
            ncom_values=(5, 10), wmin_values=(1, 2, 3), scenarios_per_cell=4,
            trials_per_scenario=1,
        )
        assert len(spec.scenarios()) == 2 * 3 * 4

    def test_all_cells_covered(self):
        spec = CampaignSpec(m_values=(10,), ncom_values=(5, 20), wmin_values=(1, 7),
                            scenarios_per_cell=1, trials_per_scenario=1)
        scenarios = spec.scenarios()
        cells = {(s.params.ncom, s.params.wmin) for s in scenarios}
        assert cells == {(5, 1), (5, 7), (20, 1), (20, 7)}
        assert all(s.params.m == 10 for s in scenarios)
