"""Tests for the proactive heuristics C-H."""

import numpy as np
import pytest

from repro.analysis.cache import AnalysisContext
from repro.analysis.criteria import get_criterion
from repro.application import Application, Configuration
from repro.availability.generators import paper_transition_matrix
from repro.availability.markov import MarkovAvailabilityModel
from repro.exceptions import SchedulingError
from repro.platform import Platform, Processor
from repro.scheduling import create_scheduler
from repro.scheduling.base import Observation
from repro.scheduling.passive import make_passive_heuristic
from repro.scheduling.proactive import ProactiveHeuristic
from repro.types import DOWN, RECLAIMED, UP


def make_platform(stays=None, speeds=None, tprog=2, tdata=1, ncom=2):
    stays = stays or [(0.98, 0.95, 0.9), (0.95, 0.9, 0.9), (0.92, 0.9, 0.9), (0.96, 0.93, 0.9)]
    speeds = speeds or [1, 2, 3, 2]
    processors = [
        Processor(
            speed=speed,
            capacity=5,
            availability=MarkovAvailabilityModel(paper_transition_matrix(list(stay))),
        )
        for stay, speed in zip(stays, speeds)
    ]
    return Platform(processors, ncom=ncom, tprog=tprog, tdata=tdata)


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


def bind(scheduler, platform, m=5):
    application = Application(tasks_per_iteration=m, iterations=3)
    scheduler.bind(platform, application, AnalysisContext(platform), np.random.default_rng(0))
    return scheduler


class TestConstruction:
    def test_unsafe_criterion_rejected(self):
        with pytest.raises(SchedulingError):
            ProactiveHeuristic(get_criterion("AY"), make_passive_heuristic("IE"))

    def test_unsafe_criterion_allowed_when_forced(self):
        scheduler = ProactiveHeuristic(
            get_criterion("AY"), make_passive_heuristic("IE"), allow_unsafe_criterion=True
        )
        assert scheduler.name == "AY-IE"

    def test_name(self):
        scheduler = ProactiveHeuristic(get_criterion("Y"), make_passive_heuristic("IAY"))
        assert scheduler.name == "Y-IAY"


class TestProactiveBehaviour:
    def test_builds_configuration_on_new_iteration(self):
        platform = make_platform()
        scheduler = bind(create_scheduler("Y-IE"), platform)
        observation = make_observation([UP, UP, UP, UP], new_iteration=True)
        config = scheduler.select(observation)
        assert config.total_tasks() == 5
        assert all(tasks <= platform.processor(w).capacity for w, tasks in config.items())

    def test_switches_to_better_workers_mid_iteration(self):
        """A proactive heuristic abandons a clearly inferior configuration."""
        platform = make_platform()
        scheduler = bind(create_scheduler("E-IE"), platform)
        # Current configuration uses only the slowest worker (id 2, speed 3)
        # and has made no progress; workers 0 and 1 are now UP.
        poor = Configuration({2: 5})
        observation = make_observation(
            [UP, UP, UP, UP], current=poor, new_iteration=False, progress=0,
            elapsed=1, comm_remaining={2: 7},
        )
        config = scheduler.select(observation)
        assert config != poor
        assert config.total_tasks() == 5

    def test_keeps_configuration_when_nearly_done(self):
        """Progress makes the current configuration unbeatable near the end."""
        platform = make_platform()
        scheduler = bind(create_scheduler("E-IE"), platform)
        # Current config on worker 2 only: workload 15, 14 slots already done,
        # no communication left; a fresh configuration would need a full
        # communication + computation phase.
        current = Configuration({2: 5})
        observation = make_observation(
            [UP, UP, UP, UP], current=current, new_iteration=False, progress=14,
            elapsed=30, comm_remaining={2: 0}, has_program=[2],
        )
        assert scheduler.select(observation) == current

    def test_passive_component_handles_failures(self):
        platform = make_platform()
        scheduler = bind(create_scheduler("Y-IE"), platform)
        observation = make_observation(
            [UP, UP, UP, DOWN], current=Configuration({0: 3, 1: 2}), failure=True,
        )
        config = scheduler.select(observation)
        assert config.total_tasks() == 5
        assert 3 not in config.workers

    def test_no_switch_to_equivalent_candidate(self):
        """Switching requires a *strictly* better candidate (anti-divergence)."""
        platform = make_platform()
        scheduler = bind(create_scheduler("E-IE"), platform)
        observation_new = make_observation([UP, UP, UP, UP], new_iteration=True)
        config = scheduler.select(observation_new)
        # Present the same configuration as current, with zero progress: the
        # candidate the heuristic would build is identical, so it must keep it.
        observation_same = make_observation(
            [UP, UP, UP, UP], current=config, new_iteration=False, progress=0,
            elapsed=0,
            comm_remaining=config.communication_slots(platform),
        )
        assert scheduler.select(observation_same) == config

    @staticmethod
    def spied(monkeypatch, platform, m=5):
        """An E-IE scheduler whose ``switch_pairs`` calls are recorded."""
        scheduler = bind(create_scheduler("E-IE"), platform, m=m)
        calls = []
        switch_pairs = scheduler.analysis.switch_pairs

        def spy(current, comm_remaining, progress, candidate, holders):
            calls.append((current, comm_remaining, progress, candidate, holders))
            return switch_pairs(current, comm_remaining, progress, candidate, holders)

        monkeypatch.setattr(scheduler.analysis, "switch_pairs", spy)
        return scheduler, calls

    def test_equal_candidate_is_not_estimated(self, monkeypatch):
        platform = make_platform()
        scheduler, calls = self.spied(monkeypatch, platform)
        states = [UP, UP, UP, UP]
        candidate = scheduler.passive.build_candidate(make_observation(states, elapsed=2))
        observation = make_observation(
            states, current=candidate, elapsed=2,
            comm_remaining=candidate.communication_slots(platform),
        )
        assert scheduler.select(observation) is candidate
        assert calls == []

    def test_missing_candidate_is_not_estimated(self, monkeypatch):
        # One UP worker of capacity 5 cannot hold m=6 tasks: no candidate.
        scheduler, calls = self.spied(monkeypatch, make_platform(), m=6)
        current = Configuration({0: 3, 1: 3})
        observation = make_observation(
            [UP, RECLAIMED, RECLAIMED, RECLAIMED], current=current, elapsed=2,
            comm_remaining={0: 0, 1: 0}, has_program=[0, 1],
        )
        assert scheduler.passive.build_candidate(observation) is None
        assert scheduler.select(observation) is current
        assert calls == []

    def test_differing_candidate_is_estimated_with_current_in_one_call(self, monkeypatch):
        scheduler, calls = self.spied(monkeypatch, make_platform())
        current = Configuration({2: 5})
        observation = make_observation(
            [UP, UP, UP, UP], current=current, elapsed=2, comm_remaining={2: 7},
            progress=1, has_program=[3],
        )
        candidate = scheduler.passive.build_candidate(observation)
        assert candidate != current
        scheduler.select(observation)
        assert calls == [(current, {2: 7}, 1, candidate, frozenset({3}))]

    def test_repeated_candidate_replays_the_greedy_path(self):
        platform = make_platform()
        scheduler = bind(create_scheduler("Y-IE"), platform)
        observation = make_observation(
            [UP, UP, UP, UP], current=Configuration({2: 5}), new_iteration=False,
            comm_remaining={2: 7}, elapsed=3,
        )
        first = scheduler.passive.build_candidate(observation)
        second = scheduler.passive.build_candidate(observation)
        assert first is second  # the finished greedy state keeps its configuration
        fresh = bind(create_scheduler("Y-IE"), platform).passive.build_candidate(observation)
        assert first == fresh  # and identical to a build from an empty tree

    def test_yield_selection_follows_the_elapsed_time(self):
        platform = make_platform()
        scheduler = bind(create_scheduler("E-IY"), platform)
        for elapsed in (0, 40, 3, 400):
            observation = make_observation(
                [UP, UP, DOWN, UP], current=Configuration({0: 5}), new_iteration=False,
                comm_remaining={0: 3}, elapsed=elapsed, has_program=[1],
            )
            fresh = bind(create_scheduler("E-IY"), platform)
            assert scheduler.passive.build_candidate(observation) == (
                fresh.passive.build_candidate(observation)
            )

    def test_rebind_uses_the_contexts_shared_tree(self):
        platform = make_platform()
        application = Application(tasks_per_iteration=5, iterations=3)
        context = AnalysisContext(platform)
        scheduler = create_scheduler("Y-IE")
        scheduler.bind(platform, application, context, np.random.default_rng(0))
        observation = make_observation(
            [UP, UP, UP, UP], current=Configuration({2: 5}), new_iteration=False,
            comm_remaining={2: 7},
        )
        first = scheduler.select(observation)
        (shared,) = context.allocator_state.values()
        grown = (shared.num_states, dict(shared.answers))
        # A rebind on the same context keeps the tree and table the first
        # run grew: the same question is answered from them, adding nothing.
        scheduler.bind(platform, application, context, np.random.default_rng(0))
        assert scheduler.select(observation) == first
        assert list(context.allocator_state.values()) == [shared]
        assert (shared.num_states, shared.answers) == grown
        # A rebind on a new context uses that context's state, which starts
        # empty, and leaves the old context's tree alone.
        bind(scheduler, platform)
        assert scheduler.passive._allocator.analysis is scheduler.analysis
        assert not scheduler.analysis.allocator_state
        scheduler.select(observation)
        (fresh,) = scheduler.analysis.allocator_state.values()
        assert fresh is not shared


class TestProactiveOutperformsPassiveOnEasyInstance:
    def test_proactive_not_worse_on_reliable_fast_platform(self):
        """End-to-end sanity: Y-IE should not lose badly to IE on an easy instance."""
        from repro.simulation import simulate

        platform = make_platform()
        application = Application(tasks_per_iteration=5, iterations=5)
        analysis = AnalysisContext(platform)
        results = {}
        for name in ("IE", "Y-IE"):
            results[name] = simulate(
                platform, application, create_scheduler(name), seed=42,
                max_slots=50_000, analysis=analysis,
            )
        assert results["Y-IE"].success
        assert results["IE"].success
        assert results["Y-IE"].makespan <= 2 * results["IE"].makespan
