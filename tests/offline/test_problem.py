"""Tests for off-line problem instances."""

import pytest

from repro.availability.trace import AvailabilityTrace
from repro.exceptions import InvalidApplicationError
from repro.offline import OfflineProblem


@pytest.fixture
def trace():
    return AvailabilityTrace([
        "uuudu",
        "uduuu",
        "uuuuu",
        "duudu",
    ])


class TestOfflineProblem:
    def test_basic(self, trace):
        problem = OfflineProblem(trace=trace, num_tasks=2, task_slots=3, capacity=1)
        assert problem.num_processors == 4
        assert problem.deadline == 5
        assert not problem.unbounded_capacity

    def test_invalid_parameters(self, trace):
        with pytest.raises(InvalidApplicationError):
            OfflineProblem(trace=trace, num_tasks=0, task_slots=1)
        with pytest.raises(InvalidApplicationError):
            OfflineProblem(trace=trace, num_tasks=1, task_slots=0)
        with pytest.raises(InvalidApplicationError):
            OfflineProblem(trace=trace, num_tasks=1, task_slots=1, capacity=0)

    def test_unbounded_capacity(self, trace):
        problem = OfflineProblem(trace=trace, num_tasks=4, task_slots=2, capacity=None)
        assert problem.unbounded_capacity
        assert problem.minimum_workers() == 1

    def test_minimum_workers_bounded(self, trace):
        problem = OfflineProblem(trace=trace, num_tasks=5, task_slots=1, capacity=2)
        assert problem.minimum_workers() == 3

    def test_required_common_slots(self, trace):
        problem = OfflineProblem(trace=trace, num_tasks=6, task_slots=2, capacity=None)
        # 3 workers -> 2 tasks each -> 4 slots; 4 workers -> ceil(6/4)=2 tasks -> 4 slots.
        assert problem.required_common_slots(3) == 4
        assert problem.required_common_slots(6) == 2
        assert problem.required_common_slots(1) == 12

    def test_required_common_slots_capacity_violation(self, trace):
        problem = OfflineProblem(trace=trace, num_tasks=6, task_slots=2, capacity=1)
        # 3 workers cannot hold 6 tasks with capacity 1 -> sentinel "impossible".
        assert problem.required_common_slots(3) > 10**9

    def test_required_common_slots_invalid(self, trace):
        problem = OfflineProblem(trace=trace, num_tasks=2, task_slots=1)
        with pytest.raises(ValueError):
            problem.required_common_slots(0)

    def test_up_matrix(self, trace):
        problem = OfflineProblem(trace=trace, num_tasks=1, task_slots=1)
        assert problem.up_matrix().shape == (4, 5)
