"""Tests for ENCD instances and the Theorem 4.1 reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidModelError
from repro.offline import (
    ENCDInstance,
    encd_to_offline_mu1,
    encd_to_offline_mu_inf,
    solve_encd_bruteforce,
    solve_offline_mu1,
    solve_offline_mu_inf,
)
from repro.offline.encd import biclique_from_offline_solution


def small_instance():
    # Bipartite graph where V = {0,1,2}, W = {0,1,2,3}; a 2x2 bi-clique exists
    # on V' = {0,1}, W' = {1,2}.
    matrix = np.array(
        [
            [True, True, True, False],
            [False, True, True, True],
            [True, False, False, True],
        ]
    )
    return ENCDInstance.from_matrix(matrix, a=2, b=2)


class TestENCDInstance:
    def test_dimensions(self):
        instance = small_instance()
        assert instance.num_left == 3
        assert instance.num_right == 4

    def test_invalid_cardinalities(self):
        matrix = np.ones((2, 2), dtype=bool)
        with pytest.raises(InvalidModelError):
            ENCDInstance.from_matrix(matrix, a=3, b=1)
        with pytest.raises(InvalidModelError):
            ENCDInstance.from_matrix(matrix, a=1, b=0)

    def test_ragged_adjacency_rejected(self):
        with pytest.raises(InvalidModelError):
            ENCDInstance(((True, False), (True,)), a=1, b=1)

    def test_empty_rejected(self):
        with pytest.raises(InvalidModelError):
            ENCDInstance((), a=1, b=1)

    def test_random_instance(self):
        instance = ENCDInstance.random(5, 6, 0.5, a=2, b=2, seed=3)
        assert instance.matrix().shape == (5, 6)


class TestBruteForceENCD:
    def test_finds_known_biclique(self):
        solution = solve_encd_bruteforce(small_instance())
        assert solution is not None
        left, right = solution
        matrix = small_instance().matrix()
        assert len(left) == 2 and len(right) == 2
        for i in left:
            for j in right:
                assert matrix[i, j]

    def test_infeasible(self):
        matrix = np.eye(3, dtype=bool)  # only a perfect matching, no 2x2 bi-clique
        instance = ENCDInstance.from_matrix(matrix, a=2, b=2)
        assert solve_encd_bruteforce(instance) is None


class TestReductionMu1:
    def test_up_matrix_mirrors_adjacency(self):
        instance = small_instance()
        problem = encd_to_offline_mu1(instance)
        up = problem.up_matrix()
        assert np.array_equal(up, instance.matrix())
        assert problem.num_tasks == instance.a
        assert problem.task_slots == instance.b
        assert problem.capacity == 1

    def test_feasibility_equivalence_on_known_instances(self):
        feasible = small_instance()
        assert (solve_encd_bruteforce(feasible) is not None) == (
            solve_offline_mu1(encd_to_offline_mu1(feasible)) is not None
        )
        infeasible = ENCDInstance.from_matrix(np.eye(3, dtype=bool), a=2, b=2)
        assert solve_offline_mu1(encd_to_offline_mu1(infeasible)) is None

    def test_solution_maps_back_to_biclique(self):
        instance = small_instance()
        solution = solve_offline_mu1(encd_to_offline_mu1(instance))
        left, right = biclique_from_offline_solution(instance, solution.workers, solution.slots)
        assert len(left) == instance.a
        assert len(right) == instance.b

    def test_biclique_extraction_rejects_non_clique(self):
        instance = small_instance()
        with pytest.raises(ValueError):
            biclique_from_offline_solution(instance, [0, 2], [1, 2])


class TestReductionMuInf:
    def test_padding_structure(self):
        instance = small_instance()
        problem = encd_to_offline_mu_inf(instance)
        assert problem.capacity is None
        assert problem.deadline == 2 * instance.num_right + 1
        assert problem.task_slots == instance.b + instance.num_right + 1
        # The padding slots are all-UP.
        up = problem.up_matrix()
        assert np.all(up[:, instance.num_right:])

    def test_feasibility_equivalence(self):
        feasible = small_instance()
        assert solve_offline_mu_inf(encd_to_offline_mu_inf(feasible)) is not None
        infeasible = ENCDInstance.from_matrix(np.eye(3, dtype=bool), a=2, b=2)
        assert solve_offline_mu_inf(encd_to_offline_mu_inf(infeasible)) is None

    def test_solution_uses_exactly_a_workers(self):
        instance = small_instance()
        solution = solve_offline_mu_inf(encd_to_offline_mu_inf(instance))
        assert len(solution.workers) == instance.a
        assert solution.tasks_per_worker == 1


class TestReductionEquivalenceProperty:
    @given(
        num_left=st.integers(min_value=2, max_value=5),
        num_right=st.integers(min_value=2, max_value=5),
        a=st.integers(min_value=1, max_value=3),
        b=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        density=st.floats(min_value=0.2, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_encd_and_both_reductions_agree(self, num_left, num_right, a, b, seed, density):
        a = min(a, num_left)
        b = min(b, num_right)
        instance = ENCDInstance.random(num_left, num_right, density, a=a, b=b, seed=seed)
        encd_feasible = solve_encd_bruteforce(instance) is not None
        mu1_feasible = solve_offline_mu1(encd_to_offline_mu1(instance)) is not None
        mu_inf_feasible = solve_offline_mu_inf(encd_to_offline_mu_inf(instance)) is not None
        assert encd_feasible == mu1_feasible
        assert encd_feasible == mu_inf_feasible
