"""End-to-end integration tests through the public API."""

import pytest

from repro import (
    ALL_HEURISTICS,
    AnalysisContext,
    Application,
    ExpectationMode,
    PlatformSpec,
    api,
    create_scheduler,
    paper_platform,
    simulate,
    summarize_results,
)
from repro.experiments.figures import figure2_series

pytestmark = pytest.mark.slow


class TestSingleRunsThroughPublicAPI:
    def test_every_heuristic_completes_an_easy_instance(self):
        platform = paper_platform(
            PlatformSpec(num_processors=10, ncom=5, wmin=1), num_tasks=5, seed=5
        )
        application = Application(tasks_per_iteration=5, iterations=2)
        analysis = AnalysisContext(platform)
        makespans = {}
        for name in ALL_HEURISTICS:
            result = simulate(
                platform, application, create_scheduler(name), seed=99,
                max_slots=30_000, analysis=analysis,
            )
            assert result.success, f"{name} failed on an easy instance"
            makespans[name] = result.makespan
        # The informed heuristics should generally beat RANDOM.
        informed_best = min(v for k, v in makespans.items() if k != "RANDOM")
        assert informed_best <= makespans["RANDOM"]

    def test_renewal_estimator_also_works_end_to_end(self):
        platform = paper_platform(
            PlatformSpec(num_processors=8, ncom=4, wmin=1), num_tasks=4, seed=2
        )
        application = Application(tasks_per_iteration=4, iterations=2)
        analysis = AnalysisContext(platform, mode=ExpectationMode.RENEWAL)
        result = simulate(
            platform, application, create_scheduler("Y-IE"), seed=3,
            max_slots=30_000, analysis=analysis,
        )
        assert result.success


def mini_campaign(name, heuristics):
    """A one-scenario, one-trial campaign with m = 3 on 10 processors."""
    return api.CampaignSpec(
        name=name,
        m_values=(3,),
        ncom_values=(5,),
        wmin_values=(1,),
        num_processors_values=(10,),
        heuristics=heuristics,
        scenarios_per_cell=1,
        trials_per_scenario=1,
        iterations=3,
        makespan_cap=30_000,
    )


class TestMiniCampaign:
    def test_smoke_campaign_and_metrics(self):
        results = api.sweep(mini_campaign("integration", ("IE", "Y-IE", "RANDOM"))).results
        summaries = summarize_results(results)
        names = [summary.heuristic for summary in summaries]
        assert set(names) == {"IE", "Y-IE", "RANDOM"}
        reference = [s for s in summaries if s.heuristic == "IE"][0]
        assert reference.pct_diff == pytest.approx(0.0)
        series = figure2_series(results)
        assert "Y-IE" in series

    def test_campaign_is_reproducible(self):
        spec = mini_campaign("repro-check", ("IE",))
        a = api.sweep(spec).results
        b = api.sweep(spec).results
        assert [r.makespan for r in a] == [r.makespan for r in b]
