"""Tests for the 3-state Markov availability model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability.generators import paper_transition_matrix
from repro.availability.markov import MarkovAvailabilityModel
from repro.exceptions import InvalidModelError
from repro.types import DOWN, RECLAIMED


def make_model(stay_up=0.95, stay_r=0.92, stay_d=0.90) -> MarkovAvailabilityModel:
    return MarkovAvailabilityModel(paper_transition_matrix([stay_up, stay_r, stay_d]))


class TestConstruction:
    def test_rejects_non_stochastic_matrix(self):
        bad = np.array([[0.9, 0.2, 0.0], [0.3, 0.6, 0.1], [0.5, 0.1, 0.4]])
        with pytest.raises(ValueError):
            MarkovAvailabilityModel(bad)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            MarkovAvailabilityModel(np.eye(2))

    def test_rejects_absorbing_reachable_down(self):
        matrix = np.array([[0.9, 0.05, 0.05], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(InvalidModelError):
            MarkovAvailabilityModel(matrix)

    def test_absorbing_down_allowed_when_flagged(self):
        matrix = np.array([[0.9, 0.05, 0.05], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]])
        model = MarkovAvailabilityModel(matrix, down_recoverable=False)
        assert model.can_fail()

    def test_invalid_initial_distribution(self):
        with pytest.raises(InvalidModelError):
            MarkovAvailabilityModel(np.eye(3), initial_distribution=np.array([0.5, 0.6, -0.1]))

    def test_initial_distribution_of_wrong_shape_rejected(self):
        with pytest.raises(InvalidModelError, match="shape"):
            MarkovAvailabilityModel(np.eye(3), initial_distribution=np.array([0.5, 0.5]))

    def test_explicit_initial_distribution_drives_initial_state(self):
        model = MarkovAvailabilityModel(
            paper_transition_matrix([0.95, 0.92, 0.90]),
            initial_distribution=np.array([0.0, 0.0, 1.0]),
        )
        rng = np.random.default_rng(3)
        assert {model.initial_state(rng) for _ in range(20)} == {DOWN}

    def test_matrix_is_a_copy(self):
        model = make_model()
        model.matrix[0, 0] = 0.0
        assert model.matrix[0, 0] == pytest.approx(0.95)

    def test_not_equal_to_other_types(self):
        assert make_model().__eq__(np.eye(3)) is NotImplemented
        assert make_model() == make_model()
        assert make_model() != make_model(stay_up=0.9)

    def test_always_up(self):
        model = MarkovAvailabilityModel.always_up()
        assert model.availability() == pytest.approx(1.0)
        assert not model.can_fail()


class TestDerivedQuantities:
    def test_stationary_distribution_is_fixed_point(self):
        model = make_model()
        pi = model.stationary_distribution()
        assert pi.shape == (3,)
        assert pi.sum() == pytest.approx(1.0)
        assert np.allclose(pi @ model.matrix, pi, atol=1e-9)

    def test_availability_between_zero_and_one(self):
        model = make_model()
        assert 0.0 < model.availability() < 1.0

    def test_mean_time_to_failure_finite_for_failing_model(self):
        model = make_model()
        mttf = model.mean_time_to_failure()
        assert np.isfinite(mttf)
        assert mttf > 1.0

    def test_mean_time_to_failure_infinite_for_reliable_model(self):
        assert MarkovAvailabilityModel.always_up().mean_time_to_failure() == float("inf")

    def test_up_reclaimed_submatrix(self):
        model = make_model()
        sub = model.up_reclaimed_submatrix()
        assert sub.shape == (2, 2)
        assert sub[0, 0] == pytest.approx(0.95)


class TestUpReturnProbability:
    def test_matches_matrix_power(self):
        model = make_model()
        sub = model.up_reclaimed_submatrix()
        for t in (1, 2, 5, 10, 50):
            expected = np.linalg.matrix_power(sub, t)[0, 0]
            assert model.up_return_probability(t) == pytest.approx(expected, rel=1e-9)

    def test_zero_steps_is_one(self):
        model = make_model()
        assert model.up_return_probability(0) == pytest.approx(1.0)

    def test_vector_of_zero_or_negative_horizon(self):
        model = make_model()
        assert model.up_return_probabilities(0).shape == (0,)
        with pytest.raises(ValueError):
            model.up_return_probabilities(-1)

    def test_vectorised_matches_scalar(self):
        model = make_model()
        horizon = 20
        vector = model.up_return_probabilities(horizon)
        scalars = [model.up_return_probability(t) for t in range(1, horizon + 1)]
        assert np.allclose(vector, scalars)

    def test_monotone_decreasing_for_failing_model(self):
        model = make_model()
        values = model.up_return_probabilities(100)
        # Not strictly monotone in general, but must decay overall and stay in [0, 1].
        assert values[0] <= 1.0
        assert values[-1] < values[0]
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_dominant_eigenvalue_below_one_when_failures_possible(self):
        model = make_model()
        assert 0.0 < model.up_return_spectrum().lambda1 < 1.0

    def test_dominant_eigenvalue_one_when_no_failures(self):
        matrix = paper_transition_matrix([0.9, 0.8, 1.0])
        # Zero out failure transitions: move that mass to RECLAIMED instead.
        matrix[0] = [0.9, 0.1, 0.0]
        matrix[1] = [0.2, 0.8, 0.0]
        matrix[2] = [0.0, 0.0, 1.0]
        model = MarkovAvailabilityModel(matrix, down_recoverable=False)
        assert model.up_return_spectrum().lambda1 == pytest.approx(1.0, abs=1e-9)


class TestNoDownProbability:
    def test_matches_submatrix_power(self):
        model = make_model()
        sub = model.up_reclaimed_submatrix()
        for t in (1, 3, 10):
            expected = np.linalg.matrix_power(sub, t)[0, :].sum()
            assert model.no_down_probability(t) == pytest.approx(expected, rel=1e-9)

    def test_decreasing_in_time(self):
        model = make_model()
        values = [model.no_down_probability(t) for t in range(0, 30)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_reliable_model_never_fails(self):
        model = MarkovAvailabilityModel.always_up()
        assert model.no_down_probability(500) == pytest.approx(1.0)

    def test_zero_and_negative_horizon(self):
        model = make_model()
        assert model.no_down_probability(0) == 1.0
        with pytest.raises(ValueError):
            model.no_down_probability(-1)

    def test_bounds_up_return_probability(self):
        # Being UP at t without a DOWN in between implies no DOWN within t.
        model = make_model()
        for t in (1, 2, 5, 20):
            assert model.no_down_probability(t) >= model.up_return_probability(t) - 1e-12


class TestSampling:
    def test_trajectory_shape_and_values(self):
        model = make_model()
        trajectory = model.sample_trajectory(200, seed=1)
        assert trajectory.shape == (200,)
        assert set(np.unique(trajectory)).issubset({0, 1, 2})

    def test_trajectory_deterministic_given_seed(self):
        model = make_model()
        a = model.sample_trajectory(50, seed=3)
        b = model.sample_trajectory(50, seed=3)
        assert np.array_equal(a, b)

    def test_forced_initial_state(self):
        model = make_model()
        trajectory = model.sample_trajectory(10, seed=0, initial=RECLAIMED)
        assert trajectory[0] == int(RECLAIMED)

    def test_empirical_transitions_match_matrix(self):
        from repro.availability.statistics import estimate_markov_matrix

        model = make_model()
        trajectory = model.sample_trajectory(60_000, seed=11)
        estimated = estimate_markov_matrix(trajectory)
        assert np.allclose(estimated, model.matrix, atol=0.02)

    def test_zero_length(self):
        model = make_model()
        assert model.sample_trajectory(0, seed=0).size == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            make_model().sample_trajectory(-1)


class TestDescribeAndEquality:
    def test_describe_reports_stay_probabilities_and_availability(self):
        model = make_model()
        text = model.describe()
        assert "p_uu=0.950" in text
        assert f"availability={model.availability():.3f}" in text

    def test_equality_and_hash(self):
        a = make_model()
        b = make_model()
        assert a == b
        assert hash(a) == hash(b)
        assert a != make_model(stay_up=0.91)


class TestPropertyBased:
    @given(
        stay=st.tuples(
            st.floats(min_value=0.05, max_value=0.99),
            st.floats(min_value=0.05, max_value=0.99),
            st.floats(min_value=0.05, max_value=0.99),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_stationary_distribution_always_valid(self, stay):
        model = MarkovAvailabilityModel(paper_transition_matrix(list(stay)))
        pi = model.stationary_distribution()
        assert pi.min() >= -1e-9
        assert pi.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(pi @ model.matrix, pi, atol=1e-6)

    @given(
        stay=st.tuples(
            st.floats(min_value=0.1, max_value=0.99),
            st.floats(min_value=0.1, max_value=0.99),
            st.floats(min_value=0.1, max_value=0.99),
        ),
        t=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_up_return_probability_in_unit_interval(self, stay, t):
        model = MarkovAvailabilityModel(paper_transition_matrix(list(stay)))
        value = float(model.up_return_probability(t))
        assert 0.0 <= value <= 1.0
        # And it can never exceed the probability of not having failed.
        assert value <= model.no_down_probability(t) + 1e-9
