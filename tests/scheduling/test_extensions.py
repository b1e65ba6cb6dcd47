"""Tests for the extension heuristics (FAST, THRESHOLD-IE, STICKY)."""

import numpy as np
import pytest

from repro.analysis.cache import AnalysisContext
from repro.application import Application, Configuration
from repro.availability.generators import paper_transition_matrix
from repro.availability.markov import MarkovAvailabilityModel
from repro.platform import Platform, Processor
from repro.scheduling import create_scheduler
from repro.scheduling.base import Observation
from repro.scheduling.extensions import (
    EXTENSION_HEURISTICS,
    FastestWorkersScheduler,
    StickyScheduler,
    ThresholdScheduler,
)
from repro.types import DOWN, UP


def make_platform():
    # Worker 0: fast but very unreliable; workers 1-3: slower but dependable.
    stays = [(0.75, 0.9, 0.9), (0.97, 0.9, 0.9), (0.96, 0.9, 0.9), (0.98, 0.9, 0.9)]
    speeds = [1, 2, 3, 4]
    processors = [
        Processor(
            speed=speed, capacity=3,
            availability=MarkovAvailabilityModel(paper_transition_matrix(list(stay))),
        )
        for stay, speed in zip(stays, speeds)
    ]
    return Platform(processors, ncom=2, tprog=2, tdata=1)


def make_observation(states, current=None, **kwargs):
    return Observation(
        slot=kwargs.get("slot", 0),
        states=np.array(states, dtype=np.int8),
        current_configuration=current or Configuration.empty(),
        iteration_index=0,
        iteration_elapsed=kwargs.get("elapsed", 0),
        progress=kwargs.get("progress", 0),
        failure=kwargs.get("failure", False),
        new_iteration=kwargs.get("new_iteration", True),
        has_program=frozenset(kwargs.get("has_program", ())),
        data_received=kwargs.get("data_received", {}),
        comm_remaining=kwargs.get("comm_remaining", {}),
    )


def bind(scheduler, platform, m=3):
    application = Application(tasks_per_iteration=m, iterations=2)
    scheduler.bind(platform, application, AnalysisContext(platform), np.random.default_rng(0))
    return scheduler


class TestRegistry:
    @pytest.mark.parametrize("name", EXTENSION_HEURISTICS)
    def test_create_by_name(self, name):
        scheduler = create_scheduler(name)
        assert scheduler.name == name

    def test_not_in_paper_set(self):
        from repro.scheduling import ALL_HEURISTICS

        assert not set(EXTENSION_HEURISTICS) & set(ALL_HEURISTICS)


class TestFastestWorkers:
    def test_picks_fastest_up_workers(self):
        platform = make_platform()
        scheduler = bind(FastestWorkersScheduler(), platform, m=2)
        config = scheduler.select(make_observation([UP, UP, UP, UP]))
        assert config.total_tasks() == 2
        assert set(config.workers) == {0, 1}  # the two smallest w_q

    def test_spills_over_when_few_workers(self):
        platform = make_platform()
        scheduler = bind(FastestWorkersScheduler(), platform, m=3)
        config = scheduler.select(make_observation([UP, DOWN, DOWN, DOWN]))
        assert config.tasks_on(0) == 3

    def test_empty_when_infeasible(self):
        platform = make_platform()
        scheduler = bind(FastestWorkersScheduler(), platform, m=3)
        config = scheduler.select(make_observation([DOWN, DOWN, DOWN, DOWN]))
        assert config.is_empty()

    def test_keeps_current_configuration(self):
        platform = make_platform()
        scheduler = bind(FastestWorkersScheduler(), platform, m=2)
        current = Configuration({2: 2})
        observation = make_observation([UP, UP, UP, UP], current=current, new_iteration=False)
        assert scheduler.select(observation) == current


class TestThreshold:
    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ThresholdScheduler(threshold=1.5)

    def test_excludes_low_availability_workers(self):
        platform = make_platform()
        scheduler = bind(ThresholdScheduler(threshold=0.4), platform, m=2)
        config = scheduler.select(make_observation([UP, UP, UP, UP]))
        # Worker 0's long-run availability is well below the threshold.
        assert 0 not in config.workers
        assert config.total_tasks() == 2

    def test_falls_back_when_filter_too_aggressive(self):
        platform = make_platform()
        scheduler = bind(ThresholdScheduler(threshold=0.99), platform, m=2)
        config = scheduler.select(make_observation([UP, DOWN, DOWN, DOWN]))
        # Nobody passes the filter, but worker 0 alone can host both tasks.
        assert config.tasks_on(0) == 2

    def test_unbound_select_raises(self):
        with pytest.raises(RuntimeError, match="must be bound"):
            ThresholdScheduler().select(make_observation([UP, UP, UP, UP]))

    def test_empty_when_no_worker_is_up(self):
        platform = make_platform()
        scheduler = bind(ThresholdScheduler(threshold=0.4), platform, m=2)
        assert scheduler.select(make_observation([DOWN, DOWN, DOWN, DOWN])).is_empty()

    def test_keeps_current_configuration(self):
        platform = make_platform()
        scheduler = bind(ThresholdScheduler(threshold=0.4), platform, m=2)
        current = Configuration({0: 2})
        observation = make_observation([UP, UP, UP, UP], current=current, new_iteration=False)
        assert scheduler.select(observation) is current


class TestSticky:
    def test_builds_and_keeps(self):
        platform = make_platform()
        scheduler = bind(StickyScheduler(), platform, m=2)
        first = scheduler.select(make_observation([UP, UP, UP, UP]))
        assert first.total_tasks() == 2
        later = scheduler.select(
            make_observation([UP, UP, UP, UP], current=first, new_iteration=False)
        )
        assert later == first

    def test_end_to_end_simulation(self):
        from repro.simulation import simulate

        platform = make_platform()
        application = Application(tasks_per_iteration=3, iterations=3)
        for name in EXTENSION_HEURISTICS:
            result = simulate(platform, application, create_scheduler(name), seed=3,
                              max_slots=30_000)
            assert result.completed_iterations >= 1


class TestExtensionInCampaign:
    @pytest.mark.slow
    def test_extensions_can_join_a_campaign(self):
        from repro.experiments import CampaignSpec, run_campaign_spec, summarize_results

        spec = CampaignSpec(
            name="extension-campaign",
            m_values=(3,),
            ncom_values=(5,),
            wmin_values=(1,),
            num_processors_values=(10,),
            heuristics=("IE", "FAST", "STICKY"),
            scenarios_per_cell=1,
            trials_per_scenario=1,
            iterations=3,
            makespan_cap=30_000,
        )
        summaries = summarize_results(run_campaign_spec(spec))
        assert {s.heuristic for s in summaries} == {"IE", "FAST", "STICKY"}
