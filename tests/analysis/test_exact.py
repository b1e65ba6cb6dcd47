"""Tests for the exact joint-chain analysis, and cross-validation of Theorem 5.1.

The exact computation is itself validated against Monte-Carlo simulation for
a two-worker set, then used as a (much tighter) ground truth for the
truncated-series/renewal approximations of :mod:`repro.analysis.group`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.group import ExpectationMode, GroupAnalysis
from repro.analysis.single import WorkerAnalysis
from repro.availability.generators import paper_transition_matrix, random_markov_models
from repro.availability.markov import MarkovAvailabilityModel
from repro.types import DOWN, UP

from tests.analysis.exact_chain import (
    ExactGroupQuantities,
    exact_expected_time,
    exact_group_quantities,
)


def make_models(stays):
    return [MarkovAvailabilityModel(paper_transition_matrix(list(stay))) for stay in stays]


class TestExactGroupQuantities:
    def test_empty_set(self):
        quantities = exact_group_quantities([])
        assert quantities.p_plus == 1.0
        assert quantities.expected_time(5) == 5.0

    def test_single_reliable_worker(self):
        quantities = exact_group_quantities([MarkovAvailabilityModel.always_up()])
        assert quantities.p_plus == pytest.approx(1.0)
        assert quantities.expected_gap == pytest.approx(1.0)
        assert quantities.expected_time(7) == pytest.approx(7.0)

    def test_single_worker_closed_form(self):
        # For a single worker the first-return analysis can be checked against
        # a direct absorbing-chain computation.
        model = make_models([(0.9, 0.8, 0.9)])[0]
        quantities = exact_group_quantities([model])
        sub = model.up_reclaimed_submatrix()
        # h = P(return to UP before DOWN | start RECLAIMED)
        h = sub[1, 0] / (1.0 - sub[1, 1] * 1.0) if False else None
        # Solve exactly: h = p_ru + p_rr * h  ->  h = p_ru / (1 - p_rr)
        h = sub[1, 0] / (1.0 - sub[1, 1])
        expected_p_plus = sub[0, 0] + sub[0, 1] * h
        assert quantities.p_plus == pytest.approx(expected_p_plus, rel=1e-12)

    def test_matches_monte_carlo(self):
        models = make_models([(0.93, 0.9, 0.9), (0.95, 0.92, 0.9)])
        quantities = exact_group_quantities(models)
        rng = np.random.default_rng(4)
        trials = 20_000
        successes = 0
        gaps = []
        for _ in range(trials):
            states = [UP for _ in models]
            gap = 0
            while True:
                gap += 1
                states = [m.next_state(s, rng) for m, s in zip(models, states)]
                if any(s == DOWN for s in states):
                    break
                if all(s == UP for s in states):
                    successes += 1
                    gaps.append(gap)
                    break
        assert successes / trials == pytest.approx(quantities.p_plus, abs=0.01)
        assert float(np.mean(gaps)) == pytest.approx(quantities.expected_gap, rel=0.03)

    def test_workload_edge_cases(self):
        quantities = ExactGroupQuantities(p_plus=0.5, expected_gap=3.0)
        assert quantities.expected_time(0) == 0.0
        assert quantities.expected_time(1) == 1.0
        assert quantities.success_probability(1) == 1.0
        assert quantities.success_probability(3) == pytest.approx(0.25)

    def test_zero_success_probability(self):
        quantities = ExactGroupQuantities(p_plus=0.0, expected_gap=math.inf)
        assert quantities.expected_time(5) == math.inf

    def test_too_many_workers_rejected(self):
        models = [MarkovAvailabilityModel.always_up()] * 20
        with pytest.raises(ValueError):
            exact_group_quantities(models)

    def test_exact_expected_time_helper(self):
        models = make_models([(0.95, 0.9, 0.9)])
        assert exact_expected_time(models, 4) == pytest.approx(
            exact_group_quantities(models).expected_time(4)
        )


class TestApproximationAgainstExact:
    @pytest.mark.parametrize("stays", [
        [(0.95, 0.90, 0.90)],
        [(0.93, 0.90, 0.90), (0.96, 0.92, 0.90)],
        [(0.95, 0.9, 0.9), (0.92, 0.95, 0.9), (0.97, 0.91, 0.93)],
    ])
    def test_p_plus_matches_exact(self, stays):
        models = make_models(stays)
        exact = exact_group_quantities(models)
        approx = GroupAnalysis([WorkerAnalysis(m) for m in models], epsilon=1e-10)
        quantities = approx.quantities(range(len(models)))
        assert quantities.p_plus == pytest.approx(exact.p_plus, rel=1e-6)

    @pytest.mark.parametrize("workload", [2, 5, 12])
    def test_renewal_expectation_matches_exact(self, workload):
        models = make_models([(0.95, 0.9, 0.9), (0.93, 0.92, 0.9)])
        exact = exact_group_quantities(models)
        approx = GroupAnalysis([WorkerAnalysis(m) for m in models], epsilon=1e-10)
        quantities = approx.quantities([0, 1])
        renewal = quantities.expected_time(workload, ExpectationMode.RENEWAL)
        assert renewal == pytest.approx(exact.expected_time(workload), rel=1e-6)
        # The paper's closed form is an upper bound on the exact expectation.
        paper = quantities.expected_time(workload, ExpectationMode.PAPER)
        assert paper >= exact.expected_time(workload) - 1e-9

    def test_random_models_cross_check(self):
        models = random_markov_models(3, seed=77)
        exact = exact_group_quantities(models)
        approx = GroupAnalysis([WorkerAnalysis(m) for m in models], epsilon=1e-12)
        quantities = approx.quantities(range(3))
        assert quantities.p_plus == pytest.approx(exact.p_plus, rel=1e-8)
        assert quantities.e_c / quantities.p_plus == pytest.approx(exact.expected_gap, rel=1e-6)

    @given(model_seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_random_models_match_exact_chain(self, model_seed):
        """P₊, the expected gap and both E(W) estimators on random ≤ 6-worker sets."""
        models = random_markov_models(6, seed=model_seed)
        analysis = GroupAnalysis([WorkerAnalysis(model) for model in models], epsilon=1e-10)
        for workers in [(0,), (0, 1), (0, 1, 2), (1, 3, 4, 5), tuple(range(6))]:
            exact = exact_group_quantities([models[w] for w in workers])
            quantities = analysis.quantities(workers)
            assert quantities.p_plus == pytest.approx(exact.p_plus, rel=1e-6)
            assert quantities.e_c / quantities.p_plus == pytest.approx(exact.expected_gap, rel=1e-5)
            for workload in (2, 7):
                exact_time = exact.expected_time(workload)
                renewal = quantities.expected_time(workload, ExpectationMode.RENEWAL)
                assert renewal == pytest.approx(exact_time, rel=1e-5)
                # The paper's closed form stays an upper bound.
                paper = quantities.expected_time(workload, ExpectationMode.PAPER)
                assert paper >= exact_time - 1e-9
