"""Tests for the passive heuristics IP / IE / IY / IAY."""

import numpy as np
import pytest

from repro.analysis.cache import AnalysisContext
from repro.application import Application, Configuration
from repro.availability.generators import paper_transition_matrix
from repro.availability.markov import MarkovAvailabilityModel
from repro.platform import Platform, Processor
from repro.scheduling.base import Observation
from repro.scheduling.passive import make_passive_heuristic
from repro.types import DOWN, RECLAIMED, UP


def make_platform():
    stays = [(0.98, 0.95, 0.9), (0.95, 0.9, 0.9), (0.92, 0.9, 0.9), (0.96, 0.93, 0.9)]
    speeds = [1, 2, 3, 2]
    processors = [
        Processor(
            speed=speed,
            capacity=5,
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
        iteration_index=kwargs.get("iteration_index", 0),
        iteration_elapsed=kwargs.get("elapsed", 0),
        progress=kwargs.get("progress", 0),
        failure=kwargs.get("failure", False),
        new_iteration=kwargs.get("new_iteration", False),
        has_program=frozenset(kwargs.get("has_program", ())),
        data_received=kwargs.get("data_received", {}),
        comm_remaining=kwargs.get("comm_remaining", {}),
    )


@pytest.fixture
def platform():
    return make_platform()


def bind(scheduler, platform, m=5):
    application = Application(tasks_per_iteration=m, iterations=3)
    scheduler.bind(platform, application, AnalysisContext(platform), np.random.default_rng(0))
    return scheduler


class TestObservation:
    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_up_workers_match_flatnonzero(self, dtype):
        rng = np.random.default_rng(5)
        vectors = [np.full(7, int(DOWN), dtype=dtype)]
        vectors += [rng.integers(0, 3, size=size).astype(dtype) for size in (1, 4, 20, 50)]
        for states in vectors:
            up = make_observation(states).up_workers()
            assert up == list(np.flatnonzero(states == UP))
            assert all(type(worker) is int for worker in up)
        assert make_observation(vectors[0]).up_workers() == []


class TestMakePassiveHeuristic:
    @pytest.mark.parametrize("name,criterion", [("IP", "P"), ("IE", "E"), ("IY", "Y"), ("IAY", "AY")])
    def test_names_and_criteria(self, name, criterion):
        scheduler = make_passive_heuristic(name)
        assert scheduler.name == name
        assert scheduler.criterion.name == criterion

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_passive_heuristic("IZ")


class TestPassiveBehaviour:
    def test_builds_full_configuration_at_iteration_start(self, platform):
        scheduler = bind(make_passive_heuristic("IE"), platform)
        observation = make_observation([UP, UP, UP, UP], new_iteration=True)
        config = scheduler.select(observation)
        assert config.total_tasks() == 5
        assert all(tasks <= platform.processor(w).capacity for w, tasks in config.items())

    def test_keeps_configuration_mid_iteration(self, platform):
        scheduler = bind(make_passive_heuristic("IE"), platform)
        current = Configuration({0: 3, 1: 2})
        observation = make_observation(
            [UP, UP, UP, UP], current=current, new_iteration=False, progress=2,
        )
        assert scheduler.select(observation) == current

    def test_keeps_configuration_even_if_better_workers_appear(self, platform):
        """Passive heuristics never reconfigure spontaneously (Section VI-A)."""
        scheduler = bind(make_passive_heuristic("IE"), platform)
        # Current configuration deliberately uses only the slowest workers.
        current = Configuration({2: 3, 3: 2})
        observation = make_observation(
            [UP, UP, UP, UP], current=current, new_iteration=False,
        )
        assert scheduler.select(observation) == current

    def test_rebuilds_after_failure_excluding_down_worker(self, platform):
        scheduler = bind(make_passive_heuristic("IE"), platform)
        observation = make_observation(
            [UP, UP, UP, DOWN], current=Configuration({0: 3, 1: 2}), failure=True,
        )
        config = scheduler.select(observation)
        assert config.total_tasks() == 5
        assert 3 not in config.workers

    def test_rebuilds_when_current_configuration_empty(self, platform):
        scheduler = bind(make_passive_heuristic("IAY"), platform)
        observation = make_observation([UP, UP, RECLAIMED, UP], new_iteration=False)
        config = scheduler.select(observation)
        assert config.total_tasks() == 5
        assert 2 not in config.workers  # RECLAIMED workers cannot be newly enrolled

    def test_returns_empty_when_no_feasible_configuration(self, platform):
        scheduler = bind(make_passive_heuristic("IP"), platform, m=5)
        observation = make_observation([DOWN, DOWN, DOWN, DOWN], new_iteration=True)
        assert scheduler.select(observation).is_empty()

    def test_ie_prefers_fast_reliable_workers(self, platform):
        scheduler = bind(make_passive_heuristic("IE"), platform, m=2)
        observation = make_observation([UP, UP, UP, UP], new_iteration=True)
        config = scheduler.select(observation)
        # Worker 0 is both the fastest and the most reliable: it must be used.
        assert 0 in config.workers

    def test_build_candidate_ignores_received_data(self, platform):
        scheduler = bind(make_passive_heuristic("IE"), platform, m=3)
        observation = make_observation(
            [UP, UP, UP, UP],
            current=Configuration({2: 3}),
            data_received={2: 3},
            new_iteration=False,
        )
        candidate = scheduler.build_candidate(observation)
        fresh = scheduler.build_configuration(
            make_observation([UP, UP, UP, UP], new_iteration=True)
        )
        # The candidate is computed "from scratch": reusable data on worker 2
        # must not make the candidate gravitate towards worker 2.
        assert candidate == fresh

    def test_requires_binding(self, platform):
        scheduler = make_passive_heuristic("IE")
        with pytest.raises(RuntimeError):
            scheduler.select(make_observation([UP, UP, UP, UP]))


class TestPassiveDifferences:
    def test_the_four_heuristics_are_genuinely_different(self):
        """Across random paper-style platforms the four criteria disagree sometimes."""
        from repro.platform import PlatformSpec, paper_platform

        names = ["IP", "IE", "IY", "IAY"]
        distinct_choices = 0
        for seed in range(8):
            platform = paper_platform(
                PlatformSpec(num_processors=8, ncom=4, wmin=2), num_tasks=5, seed=seed
            )
            observation = make_observation([UP] * 8, new_iteration=True)
            configs = set()
            for name in names:
                scheduler = bind(make_passive_heuristic(name), platform)
                configs.add(scheduler.select(observation))
            if len(configs) > 1:
                distinct_choices += 1
        assert distinct_choices >= 2
