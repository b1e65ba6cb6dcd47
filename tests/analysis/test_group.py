"""Tests for the Theorem 5.1 group quantities (Eu, A, P+, E_c, E(W))."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.group import (
    DEFAULT_MAX_HORIZON,
    ExpectationMode,
    GroupAnalysis,
    truncation_horizon,
)
from repro.analysis.single import WorkerAnalysis
from repro.availability.generators import paper_transition_matrix, random_markov_models
from repro.availability.markov import MarkovAvailabilityModel


def make_workers(stays, speeds=None):
    speeds = speeds or [1] * len(stays)
    workers = []
    for stay, speed in zip(stays, speeds):
        model = MarkovAvailabilityModel(paper_transition_matrix(list(stay)))
        workers.append(WorkerAnalysis(model, speed=speed))
    return workers


def reference_quantities(workers, horizon=20000):
    """Direct (slow) evaluation of Eu(S) and A(S) by brute-force summation."""
    product = np.ones(horizon)
    for worker in workers:
        sub = worker.model.up_reclaimed_submatrix()
        values = np.empty(horizon)
        power = np.eye(2)
        for t in range(horizon):
            power = power @ sub
            values[t] = power[0, 0]
        product *= values
    t_values = np.arange(1, horizon + 1)
    return float(product.sum()), float((t_values * product).sum())


class TestTruncationHorizon:
    def test_monotone_in_epsilon(self):
        assert truncation_horizon(0.95, 1e-9) >= truncation_horizon(0.95, 1e-3)

    def test_monotone_in_lambda(self):
        assert truncation_horizon(0.99, 1e-6) >= truncation_horizon(0.9, 1e-6)

    def test_degenerate_lambda(self):
        assert truncation_horizon(0.0, 1e-6) == 1
        assert truncation_horizon(1.0, 1e-6) == DEFAULT_MAX_HORIZON

    def test_capped(self):
        assert truncation_horizon(0.999999, 1e-12, max_horizon=500) == 500

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            truncation_horizon(0.9, 0.0)

    def test_tail_bound_actually_satisfied(self):
        lam, eps = 0.97, 1e-6
        horizon = truncation_horizon(lam, eps)
        tail_eu = lam**horizon / (1 - lam)
        tail_a = lam**horizon * (horizon / (1 - lam) + lam / (1 - lam) ** 2)
        assert tail_eu <= eps
        assert tail_a <= eps * 1.0001


class TestGroupAnalysisBasics:
    def test_invalid_constructor_arguments(self):
        workers = make_workers([(0.95, 0.9, 0.9)])
        with pytest.raises(ValueError):
            GroupAnalysis(workers, epsilon=0)
        with pytest.raises(ValueError):
            GroupAnalysis(workers, max_horizon=0)

    def test_out_of_range_worker(self):
        analysis = GroupAnalysis(make_workers([(0.95, 0.9, 0.9)]))
        with pytest.raises(IndexError):
            analysis.quantities([3])

    def test_caching(self):
        analysis = GroupAnalysis(make_workers([(0.95, 0.9, 0.9), (0.92, 0.9, 0.9)]))
        first = analysis.quantities([0, 1])
        second = analysis.quantities((1, 0))
        assert first is second
        assert analysis.cache_size() == 1
        analysis.clear_cache()
        assert analysis.cache_size() == 0

    def test_prefetch_fills_the_cache(self):
        workers = [WorkerAnalysis(model) for model in random_markov_models(6, seed=5)]
        analysis = GroupAnalysis(workers)
        analysis.prefetch([(0, 1), frozenset({2, 3}), (1, 0)])
        assert analysis.cache_size() == 2
        prefetched = analysis.quantities((0, 1))
        # A later call returns the cached object, and re-prefetching it is a no-op.
        analysis.prefetch([(1, 0)])
        assert analysis.quantities([1, 0]) is prefetched
        assert prefetched == GroupAnalysis(workers).quantities((0, 1))
        with pytest.raises(IndexError):
            analysis.prefetch([(0, 7)])

    def test_empty_set(self):
        analysis = GroupAnalysis(make_workers([(0.95, 0.9, 0.9)]))
        quantities = analysis.quantities([])
        assert quantities.p_plus == 1.0
        assert quantities.e_c == 1.0
        assert quantities.expected_time(5) == 5.0
        assert quantities.success_probability(100) == 1.0


class TestGroupQuantitiesValues:
    def test_matches_bruteforce_single_worker(self):
        workers = make_workers([(0.95, 0.90, 0.90)])
        analysis = GroupAnalysis(workers, epsilon=1e-9)
        quantities = analysis.quantities([0])
        eu_ref, a_ref = reference_quantities(workers)
        assert quantities.eu == pytest.approx(eu_ref, rel=1e-4)
        assert quantities.a == pytest.approx(a_ref, rel=1e-4)
        assert quantities.p_plus == pytest.approx(eu_ref / (1 + eu_ref), rel=1e-4)

    def test_matches_bruteforce_three_workers(self):
        workers = make_workers([(0.95, 0.9, 0.9), (0.92, 0.95, 0.9), (0.97, 0.91, 0.93)])
        analysis = GroupAnalysis(workers, epsilon=1e-9)
        quantities = analysis.quantities([0, 1, 2])
        eu_ref, a_ref = reference_quantities(workers, horizon=5000)
        assert quantities.eu == pytest.approx(eu_ref, rel=1e-4)
        assert quantities.a == pytest.approx(a_ref, rel=1e-4)

    def test_p_plus_identity(self):
        analysis = GroupAnalysis(make_workers([(0.95, 0.9, 0.9), (0.93, 0.9, 0.9)]))
        quantities = analysis.quantities([0, 1])
        assert quantities.p_plus == pytest.approx(quantities.eu / (1 + quantities.eu))

    def test_larger_sets_are_less_likely_to_succeed(self):
        stays = [(0.95, 0.9, 0.9), (0.93, 0.92, 0.9), (0.96, 0.9, 0.91), (0.94, 0.9, 0.9)]
        analysis = GroupAnalysis(make_workers(stays))
        previous = 1.0
        for size in range(1, 5):
            p_plus = analysis.quantities(range(size)).p_plus
            assert p_plus <= previous + 1e-12
            previous = p_plus

    def test_no_failure_set_uses_kac_formula(self):
        matrix = np.array([[0.8, 0.2, 0.0], [0.4, 0.6, 0.0], [0.0, 0.0, 1.0]])
        model = MarkovAvailabilityModel(matrix, down_recoverable=False)
        analysis = GroupAnalysis([WorkerAnalysis(model), WorkerAnalysis(model)])
        quantities = analysis.quantities([0, 1])
        assert quantities.p_plus == 1.0
        assert not quantities.can_fail
        pi_u = 0.4 / 0.6
        assert quantities.e_c == pytest.approx(1.0 / pi_u**2)

    def test_mixed_always_up_and_failing_workers(self):
        models = random_markov_models(4, seed=9) + [MarkovAvailabilityModel.always_up()]
        analysis = GroupAnalysis([WorkerAnalysis(model) for model in models])
        reliable = analysis.quantities([4])
        assert not reliable.can_fail
        assert reliable.p_plus == 1.0
        for workers in [(0, 4), (1, 2, 4), (0, 1, 2, 3, 4)]:
            mixed = analysis.quantities(workers)
            # An always-UP member leaves every series factor at 1: the set
            # behaves exactly like its failing members alone.
            assert mixed.can_fail
            assert mixed == analysis.quantities(set(workers) - {4})

    def test_always_up_workers(self):
        analysis = GroupAnalysis([WorkerAnalysis(MarkovAvailabilityModel.always_up())] * 2)
        quantities = analysis.quantities([0, 1])
        assert quantities.p_plus == 1.0
        assert quantities.e_c == 1.0
        assert quantities.expected_time(10) == 10.0


class TestExpectedTime:
    def test_workload_edge_cases(self):
        analysis = GroupAnalysis(make_workers([(0.95, 0.9, 0.9)]))
        quantities = analysis.quantities([0])
        assert quantities.expected_time(0) == 0.0
        assert quantities.expected_time(1) == 1.0
        assert quantities.success_probability(0) == 1.0
        assert quantities.success_probability(1) == 1.0
        with pytest.raises(ValueError):
            quantities.expected_time(-1)
        with pytest.raises(ValueError):
            quantities.success_probability(-1)

    def test_paper_mode_dominates_renewal_mode(self):
        analysis = GroupAnalysis(make_workers([(0.95, 0.9, 0.9), (0.92, 0.9, 0.9)]))
        quantities = analysis.quantities([0, 1])
        for workload in (2, 5, 10):
            paper = quantities.expected_time(workload, ExpectationMode.PAPER)
            renewal = quantities.expected_time(workload, ExpectationMode.RENEWAL)
            assert paper >= renewal
            assert renewal >= workload  # waiting can only stretch the duration

    def test_modes_coincide_without_failures(self):
        analysis = GroupAnalysis([WorkerAnalysis(MarkovAvailabilityModel.always_up())])
        quantities = analysis.quantities([0])
        assert quantities.expected_time(7, ExpectationMode.PAPER) == pytest.approx(
            quantities.expected_time(7, ExpectationMode.RENEWAL)
        )

    def test_success_probability_decreases_with_workload(self):
        analysis = GroupAnalysis(make_workers([(0.95, 0.9, 0.9), (0.92, 0.9, 0.9)]))
        quantities = analysis.quantities([0, 1])
        probabilities = [quantities.success_probability(w) for w in range(1, 20)]
        assert all(a >= b for a, b in zip(probabilities, probabilities[1:]))

    def test_unknown_mode_rejected(self):
        analysis = GroupAnalysis(make_workers([(0.95, 0.9, 0.9)]))
        with pytest.raises(ValueError):
            analysis.quantities([0]).expected_time(3, "bogus")


class TestEpsilonConvergence:
    def test_tighter_epsilon_changes_little(self):
        workers = make_workers([(0.95, 0.9, 0.9), (0.93, 0.92, 0.91)])
        coarse = GroupAnalysis(workers, epsilon=1e-3).quantities([0, 1])
        fine = GroupAnalysis(workers, epsilon=1e-10).quantities([0, 1])
        assert coarse.eu == pytest.approx(fine.eu, abs=2e-3)
        assert coarse.p_plus == pytest.approx(fine.p_plus, abs=1e-3)

    @given(
        stay_up=st.floats(min_value=0.5, max_value=0.99),
        stay_r=st.floats(min_value=0.5, max_value=0.99),
        workload=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_quantities_always_well_formed(self, stay_up, stay_r, workload):
        workers = make_workers([(stay_up, stay_r, 0.9)])
        quantities = GroupAnalysis(workers).quantities([0])
        assert 0.0 <= quantities.p_plus <= 1.0
        assert quantities.eu >= 0.0
        assert quantities.e_c >= 0.0
        assert 0.0 <= quantities.success_probability(workload) <= 1.0
        assert quantities.expected_time(workload) >= workload - 1e-9
