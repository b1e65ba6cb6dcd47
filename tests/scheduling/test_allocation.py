"""Tests for the incremental greedy allocator.

Besides behavioural tests, the key test here cross-checks the allocator's
fast-path criterion computation against the reference implementation in
:mod:`repro.analysis.evaluation` (they must rank candidates identically).
"""

import math

import numpy as np
import pytest

from repro.analysis.cache import AnalysisContext
from repro.analysis.criteria import get_criterion
from repro.analysis.evaluation import evaluate_configuration
from repro.application import Application, Configuration
from repro.availability.generators import paper_transition_matrix, random_markov_models
from repro.availability.markov import MarkovAvailabilityModel
from repro.availability.trace import TraceAvailabilityModel
from repro.platform import Platform, Processor
from repro.scheduling.allocation import IncrementalAllocator
from repro.scheduling.registry import available_heuristics, create_scheduler
from repro.simulation.engine import SimulationEngine
from tests.scheduling.scalar_allocator import ScalarAllocator


def make_platform(stays, speeds, capacities=None, ncom=2, tprog=3, tdata=1):
    capacities = capacities or [5] * len(stays)
    processors = [
        Processor(
            speed=speed,
            capacity=capacity,
            availability=MarkovAvailabilityModel(paper_transition_matrix(list(stay))),
        )
        for stay, speed, capacity in zip(stays, speeds, capacities)
    ]
    return Platform(processors, ncom=ncom, tprog=tprog, tdata=tdata)


def with_task_added(config, worker):
    """*config* with one more task on *worker*."""
    return Configuration({**config.allocation, worker: config.tasks_on(worker) + 1})


@pytest.fixture
def platform():
    stays = [(0.98, 0.95, 0.9), (0.95, 0.9, 0.9), (0.91, 0.9, 0.9), (0.97, 0.9, 0.95)]
    return make_platform(stays, speeds=[2, 1, 1, 4])


@pytest.fixture
def context(platform):
    return AnalysisContext(platform)


class TestAllocateBasics:
    def test_allocates_exactly_m_tasks(self, platform, context):
        allocator = IncrementalAllocator(get_criterion("E"), context, platform, num_tasks=5)
        config = allocator.allocate([0, 1, 2, 3])
        assert config is not None
        assert config.total_tasks() == 5
        assert all(tasks <= platform.processor(w).capacity for w, tasks in config.items())

    def test_no_up_workers(self, platform, context):
        allocator = IncrementalAllocator(get_criterion("E"), context, platform, num_tasks=3)
        assert allocator.allocate([]) is None

    def test_insufficient_capacity(self, platform, context):
        allocator = IncrementalAllocator(get_criterion("E"), context, platform, num_tasks=20)
        assert allocator.allocate([0, 1]) is None

    def test_respects_capacity_bounds(self):
        stays = [(0.95, 0.9, 0.9), (0.95, 0.9, 0.9)]
        platform = make_platform(stays, speeds=[1, 10], capacities=[2, 5])
        context = AnalysisContext(platform)
        allocator = IncrementalAllocator(get_criterion("E"), context, platform, num_tasks=4)
        config = allocator.allocate([0, 1])
        assert config.tasks_on(0) <= 2

    def test_only_up_workers_used(self, platform, context):
        allocator = IncrementalAllocator(get_criterion("E"), context, platform, num_tasks=2)
        config = allocator.allocate([1, 2])
        assert set(config.workers).issubset({1, 2})

    def test_invalid_num_tasks(self, platform, context):
        with pytest.raises(ValueError):
            IncrementalAllocator(get_criterion("E"), context, platform, num_tasks=0)


class TestHeuristicBehaviour:
    def test_ie_prefers_fast_workers(self):
        # Two perfectly reliable workers, one fast and one slow: IE must place
        # every task where the expected completion time stays lowest.
        stays = [(0.99, 0.99, 0.99), (0.99, 0.99, 0.99)]
        platform = make_platform(stays, speeds=[1, 10], tprog=0, tdata=0)
        context = AnalysisContext(platform)
        allocator = IncrementalAllocator(get_criterion("E"), context, platform, num_tasks=3)
        config = allocator.allocate([0, 1])
        assert config.tasks_on(0) == 3
        assert config.tasks_on(1) == 0

    def test_ip_prefers_reliable_workers(self):
        # Same speed, very different reliability: IP must avoid the flaky worker.
        stays = [(0.999, 0.9, 0.9), (0.80, 0.9, 0.9)]
        platform = make_platform(stays, speeds=[2, 2], tprog=0, tdata=0)
        context = AnalysisContext(platform)
        allocator = IncrementalAllocator(get_criterion("P"), context, platform, num_tasks=2)
        config = allocator.allocate([0, 1])
        assert config.tasks_on(0) == 2

    def test_yield_accounts_for_both_speed_and_reliability(self):
        # With equal reliability, the yield criterion behaves like IE and
        # prefers the faster worker...
        equal_reliability = make_platform(
            [(0.97, 0.9, 0.9), (0.97, 0.9, 0.9)], speeds=[1, 6], tprog=0, tdata=0
        )
        context = AnalysisContext(equal_reliability)
        config = IncrementalAllocator(get_criterion("Y"), context, equal_reliability, 3).allocate([0, 1])
        assert config.tasks_on(0) == 3
        # ... and with equal speeds it prefers the reliable worker (this is
        # the speed/reliability trade-off the paper motivates the yield with).
        equal_speed = make_platform(
            [(0.999, 0.95, 0.9), (0.82, 0.9, 0.9)], speeds=[4, 4], tprog=0, tdata=0
        )
        context = AnalysisContext(equal_speed)
        config = IncrementalAllocator(get_criterion("Y"), context, equal_speed, 1).allocate([0, 1])
        assert config.tasks_on(0) == 1

    def test_program_possession_biases_selection(self):
        # With a large program transfer, a worker that already holds the
        # program should be preferred by IE, all else being equal.
        stays = [(0.95, 0.9, 0.9), (0.95, 0.9, 0.9)]
        platform = make_platform(stays, speeds=[2, 2], tprog=20, tdata=1, ncom=1)
        context = AnalysisContext(platform)
        allocator = IncrementalAllocator(get_criterion("E"), context, platform, num_tasks=1)
        config = allocator.allocate([0, 1], has_program=[1])
        assert config.tasks_on(1) == 1

    def test_received_data_is_reused(self):
        stays = [(0.95, 0.9, 0.9), (0.95, 0.9, 0.9)]
        platform = make_platform(stays, speeds=[2, 2], tprog=0, tdata=5, ncom=1)
        context = AnalysisContext(platform)
        allocator = IncrementalAllocator(get_criterion("E"), context, platform, num_tasks=2)
        config = allocator.allocate([0, 1], received_data={1: 2})
        # Worker 1 already has the data of two tasks: placing both tasks there
        # costs no communication at all.
        assert config.tasks_on(1) == 2


class TestFastPathMatchesReference:
    @pytest.mark.parametrize("criterion_name", ["P", "E", "Y", "AY"])
    def test_greedy_choice_matches_reference_evaluation(self, criterion_name):
        """The fast-path value used by the allocator equals the reference estimate."""
        models = random_markov_models(5, seed=17)
        rng = np.random.default_rng(3)
        processors = [
            Processor(speed=int(rng.integers(1, 8)), capacity=4, availability=model)
            for model in models
        ]
        platform = Platform(processors, ncom=2, tprog=4, tdata=2)
        context = AnalysisContext(platform)
        criterion = get_criterion(criterion_name)
        allocator = IncrementalAllocator(criterion, context, platform, num_tasks=4)
        has_program = [1, 3]
        elapsed = 7

        config = allocator.allocate(range(5), has_program=has_program, elapsed=elapsed)
        assert config is not None
        assert config == reference_greedy(
            context, platform, criterion, 4, has_program=has_program, elapsed=elapsed
        )


def reference_greedy(context, platform, criterion, num_tasks, *, has_program=(), elapsed=0):
    """The greedy construction of the allocator, scored by ``evaluate_configuration``."""
    reference = Configuration.empty()
    for _ in range(num_tasks):
        best, best_value = None, None
        for worker in range(platform.num_processors):
            if reference.tasks_on(worker) >= platform.processor(worker).capacity:
                continue
            candidate = with_task_added(reference, worker)
            estimate = evaluate_configuration(
                context.group, platform, candidate,
                has_program=has_program, elapsed=elapsed,
            )
            value = criterion.value(estimate)
            if best is None or criterion.better(value, best_value):
                best, best_value = worker, value
        reference = with_task_added(reference, best)
    return reference


def stuck_reclaimed_platform():
    """Row 0 ends RECLAIMED, so its Markov approximation never leaves
    RECLAIMED and its expected communication time is infinite."""
    rows = [
        "uuuuuuuurrrrrrrrrrrr",
        "uuuuuuuuuuuuuuuuruuu",
        "uuuruuuuuuuuuuuuuuuu",
        "uuuuuuuuuuuuuduuuuuu",
    ]
    processors = [
        Processor(speed=1, capacity=3, availability=TraceAvailabilityModel(row)) for row in rows
    ]
    return Platform(processors, ncom=2, tprog=2, tdata=1)


class TestWorkerThatCannotReturnUp:
    """An UP worker with an infinite expected transfer scores P = 0, E = inf,
    as ``estimate_communication`` does, instead of crashing the allocator."""

    def test_evaluate_scores_the_stuck_worker_zero(self):
        platform = stuck_reclaimed_platform()
        estimate = AnalysisContext(platform).evaluate(Configuration({0: 1, 1: 1}))
        assert estimate.communication.success_probability == 0.0
        assert estimate.success_probability == 0.0
        assert estimate.expected_time == math.inf

    @pytest.mark.parametrize("criterion_name", ["P", "E", "Y", "AY"])
    def test_allocation_matches_reference(self, criterion_name):
        platform = stuck_reclaimed_platform()
        context = AnalysisContext(platform)
        criterion = get_criterion(criterion_name)
        allocator = IncrementalAllocator(criterion, context, platform, num_tasks=2)
        oracle = ScalarAllocator(criterion, context, platform, num_tasks=2)
        for has_program in ((), (0, 2)):
            config = allocator.allocate(range(4), has_program=has_program, elapsed=3)
            assert config == reference_greedy(
                context, platform, criterion, 2, has_program=has_program, elapsed=3
            )
            assert oracle.allocate(range(4), has_program=has_program, elapsed=3) == config

    @pytest.mark.parametrize(
        "heuristic", available_heuristics("passive") + available_heuristics("proactive")
    )
    def test_every_heuristic_finishes(self, heuristic):
        engine = SimulationEngine(
            stuck_reclaimed_platform(),
            Application(tasks_per_iteration=2),
            create_scheduler(heuristic),
            seed=3,
        )
        assert engine.run().success
