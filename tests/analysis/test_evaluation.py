"""Tests for configuration evaluation (probability / time / yield estimates)."""

import math

import pytest

from repro.analysis.criteria import get_criterion
from repro.analysis.evaluation import evaluate_configuration
from repro.analysis.group import ExpectationMode, GroupAnalysis
from repro.analysis.single import WorkerAnalysis
from repro.application import Configuration
from repro.availability.generators import paper_transition_matrix
from repro.availability.markov import MarkovAvailabilityModel
from repro.platform import Platform, Processor

YIELD = get_criterion("Y")


@pytest.fixture
def platform():
    stays = [(0.97, 0.9, 0.9), (0.95, 0.92, 0.9), (0.90, 0.9, 0.9)]
    speeds = [1, 2, 4]
    processors = [
        Processor(
            speed=speed,
            capacity=5,
            availability=MarkovAvailabilityModel(paper_transition_matrix(list(stay))),
        )
        for stay, speed in zip(stays, speeds)
    ]
    return Platform(processors, ncom=2, tprog=5, tdata=1)


@pytest.fixture
def analysis(platform):
    workers = [
        WorkerAnalysis(proc.availability, speed=proc.speed, capacity=proc.capacity)
        for proc in platform.processors
    ]
    return GroupAnalysis(workers, epsilon=1e-9)


class TestEvaluateConfiguration:
    def test_fresh_configuration(self, analysis, platform):
        config = Configuration({0: 2, 1: 1})
        estimate = evaluate_configuration(analysis, platform, config)
        assert estimate.workload == config.workload(platform)
        assert 0.0 < estimate.success_probability <= 1.0
        assert estimate.expected_time >= estimate.workload
        assert estimate.communication.total_slots == sum(
            config.communication_slots(platform).values()
        )

    def test_program_possession_reduces_expected_time(self, analysis, platform):
        config = Configuration({0: 2, 1: 1})
        fresh = evaluate_configuration(analysis, platform, config)
        cached = evaluate_configuration(analysis, platform, config, has_program=[0, 1])
        assert cached.communication.total_slots < fresh.communication.total_slots
        assert cached.expected_time < fresh.expected_time
        assert cached.success_probability >= fresh.success_probability

    def test_received_data_reduces_communication(self, analysis, platform):
        config = Configuration({0: 3})
        partial = evaluate_configuration(
            analysis, platform, config, has_program=[0], received_data={0: 2}
        )
        assert partial.communication.total_slots == platform.tdata  # one message left

    def test_explicit_comm_slots_override(self, analysis, platform):
        config = Configuration({0: 1, 1: 1})
        estimate = evaluate_configuration(
            analysis, platform, config, comm_slots={0: 0, 1: 0}
        )
        assert estimate.communication.expected_time == 0.0

    def test_completed_work_reduces_remaining(self, analysis, platform):
        config = Configuration({2: 2})  # workload = 8
        full = evaluate_configuration(analysis, platform, config, comm_slots={2: 0})
        partial = evaluate_configuration(
            analysis, platform, config, comm_slots={2: 0}, completed_work=6
        )
        done = evaluate_configuration(
            analysis, platform, config, comm_slots={2: 0}, completed_work=20
        )
        assert partial.workload == 2
        assert partial.expected_time < full.expected_time
        assert done.workload == 0
        assert done.expected_time == 0.0
        assert done.success_probability == 1.0

    def test_empty_configuration(self, analysis, platform):
        estimate = evaluate_configuration(analysis, platform, Configuration.empty())
        assert estimate.expected_time == 0.0
        assert estimate.success_probability == 1.0

    def test_yield_uses_elapsed(self, analysis, platform):
        config = Configuration({0: 1})
        early = evaluate_configuration(analysis, platform, config, elapsed=0)
        late = evaluate_configuration(analysis, platform, config, elapsed=100)
        assert YIELD.value(late) < YIELD.value(early)
        assert late.apparent_yield == pytest.approx(early.apparent_yield)

    def test_yield_degenerate_cases(self, analysis, platform):
        estimate = evaluate_configuration(analysis, platform, Configuration.empty())
        assert estimate.apparent_yield == math.inf
        assert YIELD.value(estimate) == math.inf

    def test_invalid_arguments(self, analysis, platform):
        config = Configuration({0: 1})
        with pytest.raises(ValueError):
            evaluate_configuration(analysis, platform, config, completed_work=-1)
        with pytest.raises(ValueError):
            evaluate_configuration(analysis, platform, config, elapsed=-1)

    def test_probability_is_product_of_comm_and_comp(self, analysis, platform):
        config = Configuration({0: 1, 2: 1})
        estimate = evaluate_configuration(analysis, platform, config)
        assert estimate.success_probability == pytest.approx(
            estimate.communication.success_probability * estimate.computation_probability
        )

    def test_renewal_mode_is_not_slower(self, analysis, platform):
        config = Configuration({0: 2, 1: 2})
        paper = evaluate_configuration(analysis, platform, config, mode=ExpectationMode.PAPER)
        renewal = evaluate_configuration(analysis, platform, config, mode=ExpectationMode.RENEWAL)
        assert renewal.expected_time <= paper.expected_time + 1e-9


class TestSlowerWorkerHurtsEstimate:
    def test_adding_unreliable_slow_worker_lowers_probability(self, analysis, platform):
        reliable_only = evaluate_configuration(analysis, platform, Configuration({0: 2}))
        with_flaky = evaluate_configuration(analysis, platform, Configuration({0: 1, 2: 1}))
        assert with_flaky.computation_probability < reliable_only.computation_probability
