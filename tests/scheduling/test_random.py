"""Tests for the RANDOM baseline scheduler."""

import numpy as np
import pytest

from repro.analysis.cache import AnalysisContext
from repro.application import Application, Configuration
from repro.platform import uniform_platform
from repro.scheduling.base import Observation
from repro.scheduling.random_heuristic import RandomScheduler
from repro.types import DOWN, RECLAIMED, UP


def make_observation(states, current=None, failure=False, new_iteration=True, **kwargs):
    return Observation(
        slot=kwargs.get("slot", 0),
        states=np.array(states, dtype=np.int8),
        current_configuration=current or Configuration.empty(),
        iteration_index=0,
        iteration_elapsed=kwargs.get("elapsed", 0),
        progress=kwargs.get("progress", 0),
        failure=failure,
        new_iteration=new_iteration,
        has_program=frozenset(kwargs.get("has_program", ())),
        data_received=kwargs.get("data_received", {}),
        comm_remaining=kwargs.get("comm_remaining", {}),
    )


@pytest.fixture
def bound_scheduler():
    platform = uniform_platform(4, speed=1, capacity=2, tprog=0, tdata=0)
    application = Application(tasks_per_iteration=3, iterations=1)
    scheduler = RandomScheduler()
    scheduler.bind(platform, application, AnalysisContext(platform), np.random.default_rng(0))
    return scheduler


class TestRandomScheduler:
    def test_builds_valid_configuration(self, bound_scheduler):
        observation = make_observation([UP, UP, UP, UP])
        config = bound_scheduler.select(observation)
        assert config.total_tasks() == 3
        platform = bound_scheduler.platform
        assert all(tasks <= platform.processor(w).capacity for w, tasks in config.items())

    def test_only_up_workers_enrolled(self, bound_scheduler):
        observation = make_observation([UP, DOWN, RECLAIMED, UP])
        config = bound_scheduler.select(observation)
        assert set(config.workers).issubset({0, 3})

    def test_returns_empty_when_infeasible(self, bound_scheduler):
        # Only one UP worker with capacity 2 < 3 tasks.
        observation = make_observation([UP, DOWN, DOWN, DOWN])
        config = bound_scheduler.select(observation)
        assert config.is_empty()

    def test_keeps_configuration_mid_iteration(self, bound_scheduler):
        current = Configuration({0: 2, 3: 1})
        observation = make_observation(
            [UP, UP, UP, UP], current=current, new_iteration=False
        )
        assert bound_scheduler.select(observation) == current

    def test_rebuilds_after_failure(self, bound_scheduler):
        observation = make_observation(
            [UP, UP, UP, DOWN], current=Configuration({0: 2}), failure=True,
            new_iteration=False,
        )
        config = bound_scheduler.select(observation)
        assert config.total_tasks() == 3
        assert 3 not in config.workers

    def test_randomness_is_seeded(self):
        platform = uniform_platform(6, speed=1, capacity=1, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=3, iterations=1)
        picks = []
        for _ in range(2):
            scheduler = RandomScheduler()
            scheduler.bind(platform, application, AnalysisContext(platform),
                           np.random.default_rng(123))
            observation = make_observation([UP] * 6)
            picks.append(scheduler.select(observation))
        assert picks[0] == picks[1]

    def test_distribution_covers_workers(self):
        platform = uniform_platform(5, speed=1, capacity=1, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=2, iterations=1)
        scheduler = RandomScheduler()
        scheduler.bind(platform, application, AnalysisContext(platform),
                       np.random.default_rng(7))
        used = set()
        for _ in range(40):
            observation = make_observation([UP] * 5)
            used.update(scheduler.select(observation).workers)
        assert used == {0, 1, 2, 3, 4}

    def test_requires_binding(self):
        scheduler = RandomScheduler()
        with pytest.raises(RuntimeError):
            scheduler.select(make_observation([UP]))
