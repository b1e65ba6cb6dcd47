"""Tests for per-processor analysis quantities (WorkerAnalysis)."""

import numpy as np
import pytest

from repro.analysis.single import WorkerAnalysis
from repro.availability.generators import paper_transition_matrix
from repro.availability.markov import MarkovAvailabilityModel


def make_analysis(stay=(0.95, 0.9, 0.9), speed=2):
    model = MarkovAvailabilityModel(paper_transition_matrix(list(stay)))
    return WorkerAnalysis(model, speed=speed, capacity=3)


class TestWorkerAnalysis:
    def test_carries_speed_and_capacity(self):
        analysis = make_analysis(speed=4)
        assert analysis.speed == 4
        assert analysis.capacity == 3

    def test_lambda1_in_unit_interval(self):
        analysis = make_analysis()
        assert 0.0 < analysis.lambda1 < 1.0

    def test_up_return_array_matches_model(self):
        analysis = make_analysis()
        array = analysis.up_return_array(30)
        expected = analysis.model.up_return_probabilities(30)
        assert np.allclose(array, expected)

    def test_up_return_array_grows_and_caches(self):
        analysis = make_analysis()
        short = analysis.up_return_array(5).copy()
        longer = analysis.up_return_array(20)
        assert np.allclose(longer[:5], short)
        assert analysis.up_return_array(10).shape == (10,)

    def test_no_down_probability_matches_matrix_power(self):
        # The eigen closed form, on the scalar path the analysis uses.
        analysis = make_analysis()
        sub = analysis.model.up_reclaimed_submatrix()
        for t in range(1, 16):
            expected = np.linalg.matrix_power(sub, t)[0, :].sum()
            assert analysis.no_down_probability(t) == pytest.approx(expected, rel=1e-9)

    def test_no_down_scalar_at_long_horizon(self):
        analysis = make_analysis()
        value = analysis.no_down_probability(50)
        expected = analysis.model.no_down_probability(50)
        assert value == pytest.approx(expected, rel=1e-9)

    def test_no_down_zero(self):
        assert make_analysis().no_down_probability(0) == 1.0

    def test_negative_horizons_rejected(self):
        analysis = make_analysis()
        with pytest.raises(ValueError):
            analysis.up_return_array(-1)
        with pytest.raises(ValueError):
            analysis.no_down_probability(-2)

    def test_can_fail(self):
        assert make_analysis().can_fail()
        reliable = WorkerAnalysis(MarkovAvailabilityModel.always_up())
        assert not reliable.can_fail()

    def test_up_stationary_no_failure(self):
        # A chain that alternates between UP and RECLAIMED only.
        matrix = np.array([[0.8, 0.2, 0.0], [0.4, 0.6, 0.0], [0.0, 0.0, 1.0]])
        model = MarkovAvailabilityModel(matrix, down_recoverable=False)
        analysis = WorkerAnalysis(model)
        # pi_u = p_ru / (p_ur + p_ru) = 0.4 / 0.6
        assert analysis.up_stationary_no_failure() == pytest.approx(0.4 / 0.6)

    def test_up_stationary_always_up(self):
        analysis = WorkerAnalysis(MarkovAvailabilityModel.always_up())
        assert analysis.up_stationary_no_failure() == 1.0

    def test_defective_chain_falls_back_to_matrix_powers(self):
        # Identical diagonal entries make the two eigenvalues coincide.
        matrix = np.array([[0.9, 0.0, 0.1], [0.0, 0.9, 0.1], [0.5, 0.0, 0.5]])
        model = MarkovAvailabilityModel(matrix)
        analysis = WorkerAnalysis(model)
        sub = model.up_reclaimed_submatrix()
        for t in (1, 4, 9):
            expected = np.linalg.matrix_power(sub, t)[0, :].sum()
            assert analysis.no_down_probability(t) == pytest.approx(expected, rel=1e-9)
