"""Tests for the exact off-line solvers."""
import pytest

from repro.availability.trace import AvailabilityTrace
from repro.offline import OfflineProblem, solve_offline_mu1, solve_offline_mu_inf


def make_problem(rows, m, w, capacity=1):
    return OfflineProblem(
        trace=AvailabilityTrace(rows), num_tasks=m, task_slots=w, capacity=capacity
    )


class TestSolveMu1:
    def test_finds_non_contiguous_window(self):
        problem = make_problem(["udduu", "uuduu", "ududu"], m=2, w=3)
        solution = solve_offline_mu1(problem)
        assert solution is not None
        assert solution.workers == frozenset({0, 1}) or len(solution.workers) == 2
        # All chosen slots must have both workers UP.
        up = problem.up_matrix()
        for slot in solution.slots:
            assert all(up[worker, slot] for worker in solution.workers)

    def test_infeasible(self):
        problem = make_problem(["ud", "du"], m=2, w=1)
        assert solve_offline_mu1(problem) is None

    def test_more_tasks_than_processors(self):
        problem = make_problem(["uu"], m=2, w=1)
        assert solve_offline_mu1(problem) is None

    def test_earliest_completion_is_preferred(self):
        # Workers {0,1} complete 2 common slots at slot 1; workers {1,2} only at slot 3.
        problem = make_problem(["uudd", "uuuu", "dduu"], m=2, w=2)
        solution = solve_offline_mu1(problem)
        assert solution.workers == frozenset({0, 1})
        assert solution.slots[-1] + 1 == 2

    def test_requires_capacity_one(self):
        problem = make_problem(["uu"], m=1, w=1, capacity=None)
        with pytest.raises(ValueError):
            solve_offline_mu1(problem)

    def test_solution_properties(self):
        problem = make_problem(["uuu", "uuu"], m=2, w=2)
        solution = solve_offline_mu1(problem)
        assert len(solution.workers) == 2
        assert solution.num_slots == 2
        assert solution.tasks_per_worker == 1


class TestSolveMuInf:
    def test_prefers_fewer_tasks_per_worker_when_equal(self):
        problem = make_problem(["uuuu", "uuuu"], m=2, w=2, capacity=None)
        solution = solve_offline_mu_inf(problem)
        assert solution is not None
        assert len(solution.workers) == 2
        assert solution.tasks_per_worker == 1

    def test_single_worker_fallback(self):
        # Only one worker is ever UP, so it must run both tasks (2 * w slots).
        problem = make_problem(["uuuu", "dddd"], m=2, w=2, capacity=None)
        solution = solve_offline_mu_inf(problem)
        assert solution is not None
        assert len(solution.workers) == 1
        assert solution.tasks_per_worker == 2
        assert solution.num_slots == 4

    def test_infeasible_horizon_too_short(self):
        problem = make_problem(["uu", "uu"], m=2, w=3, capacity=None)
        assert solve_offline_mu_inf(problem) is None

    def test_requires_unbounded_capacity(self):
        problem = make_problem(["uu"], m=1, w=1, capacity=1)
        with pytest.raises(ValueError):
            solve_offline_mu_inf(problem)

    def test_earlier_completion_with_fewer_workers_wins(self):
        # Two workers together are only UP late; a single fast-available worker
        # finishes the doubled workload earlier.
        rows = ["uuuuuddd", "ddddduuu"]
        problem = make_problem(rows, m=2, w=2, capacity=None)
        solution = solve_offline_mu_inf(problem)
        assert len(solution.workers) == 1
        assert solution.workers == frozenset({0})
        assert solution.slots[-1] + 1 == 4
