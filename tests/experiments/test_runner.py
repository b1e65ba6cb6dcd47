"""Tests for the instance and campaign runner."""

from dataclasses import replace

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import CampaignSpec, ExperimentScenario, ScenarioParameters
from repro.experiments.runner import run_campaign_spec, run_instance

pytestmark = pytest.mark.slow

#: Run length and cap of every instance below.
RUN = dict(iterations=2, makespan_cap=20_000)

#: One scenario (the one ``small_scenario`` builds), two trials.
SMALL_SPEC = CampaignSpec(
    name="test",
    m_values=(4,),
    ncom_values=(5,),
    wmin_values=(1,),
    num_processors_values=(8,),
    heuristics=("IE",),
    scenarios_per_cell=1,
    trials_per_scenario=2,
    **RUN,
)


def small_scenario():
    return ExperimentScenario(
        ScenarioParameters(m=4, ncom=5, wmin=1, num_processors=8), 0, campaign="test"
    )


class TestRunInstance:
    def test_basic(self):
        result = run_instance(small_scenario(), "IE", trial=0, **RUN)
        assert result.heuristic == "IE"
        assert result.success
        assert result.makespan is not None and result.makespan > 0
        assert result.m == 4
        assert result.wall_time_seconds > 0

    def test_reproducible(self):
        a = run_instance(small_scenario(), "IE", trial=0, **RUN)
        b = run_instance(small_scenario(), "IE", trial=0, **RUN)
        assert a.makespan == b.makespan
        assert a.total_restarts == b.total_restarts

    def test_trials_differ(self):
        makespans = {
            run_instance(small_scenario(), "IE", trial=t, **RUN).makespan for t in range(4)
        }
        assert len(makespans) > 1

    def test_round_trip_dict(self):
        from repro.experiments.runner import InstanceResult

        result = run_instance(small_scenario(), "RANDOM", trial=1, **RUN)
        clone = InstanceResult.from_dict(result.as_dict())
        assert clone == result

    def test_keys(self):
        result = run_instance(small_scenario(), "IE", trial=2, **RUN)
        assert result.scenario_key() == (4, 5, 1, 0)
        assert result.instance_key() == (4, 5, 1, 0, 2)


class TestScenarioCells:
    def test_all_heuristics_and_trials(self):
        results = run_campaign_spec(replace(SMALL_SPEC, heuristics=("IE", "RANDOM")))
        assert len(results) == 2 * SMALL_SPEC.trials_per_scenario
        heuristics = {result.heuristic for result in results}
        assert heuristics == {"IE", "RANDOM"}

    def test_availability_is_paired_across_heuristics(self):
        """Same trial -> same availability realisation for every heuristic.

        We cannot observe the realisation directly from InstanceResult, but a
        shared-platform scenario with paired seeds must make IE deterministic
        across the two calls (one inside the campaign, one standalone).
        """
        results = run_campaign_spec(SMALL_SPEC)
        standalone = run_instance(small_scenario(), "IE", trial=0, **RUN)
        paired = [r for r in results if r.trial_index == 0][0]
        assert paired.makespan == standalone.makespan


class TestRunCampaignSpec:
    def test_small_campaign(self):
        spec = replace(SMALL_SPEC, name="unit", heuristics=("IE", "Y-IE", "RANDOM"))
        results = run_campaign_spec(spec)
        assert {result.m for result in results} == {4}
        assert len(results) == 3 * spec.trials_per_scenario
        assert len({result.instance_key() for result in results}) == spec.trials_per_scenario
        assert {result.heuristic for result in results} == {"IE", "Y-IE", "RANDOM"}

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ExperimentError):
            replace(SMALL_SPEC, heuristics=("IE", "NOPE"))

    def test_progress_callback(self):
        seen = []
        run_campaign_spec(replace(SMALL_SPEC, name="unit"), cell_progress=seen.append)
        assert seen[-1].done == seen[-1].total == SMALL_SPEC.num_cells()

    def test_parallel_matches_serial(self):
        spec = replace(SMALL_SPEC, name="par")
        serial = run_campaign_spec(spec)
        parallel = run_campaign_spec(spec, n_jobs=2)
        serial_map = {r.instance_key(): r.makespan for r in serial}
        parallel_map = {r.instance_key(): r.makespan for r in parallel}
        assert serial_map == parallel_map
