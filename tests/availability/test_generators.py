"""Tests for the paper-style availability-model generators."""

import numpy as np
import pytest

from repro.availability.generators import (
    paper_transition_matrix,
    random_markov_model,
    random_markov_models,
)
from repro.exceptions import InvalidModelError


class TestPaperTransitionMatrix:
    def test_structure(self):
        matrix = paper_transition_matrix([0.9, 0.8, 0.7])
        assert matrix[0, 0] == pytest.approx(0.9)
        assert matrix[0, 1] == pytest.approx(0.05)
        assert matrix[0, 2] == pytest.approx(0.05)
        assert matrix[1, 0] == pytest.approx(0.1)
        assert matrix[2, 2] == pytest.approx(0.7)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidModelError):
            paper_transition_matrix([0.9, 0.8])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidModelError):
            paper_transition_matrix([1.2, 0.8, 0.7])


class TestRandomMarkovModel:
    def test_deterministic_given_seed(self):
        a = random_markov_model(seed=5)
        b = random_markov_model(seed=5)
        assert a == b

    def test_stay_probabilities_within_paper_range(self):
        for seed in range(20):
            model = random_markov_model(seed=seed)
            diag = np.diag(model.matrix)
            assert np.all(diag >= 0.90) and np.all(diag <= 0.99)

    def test_off_diagonal_split_evenly(self):
        model = random_markov_model(seed=1)
        matrix = model.matrix
        for i in range(3):
            off = [matrix[i, j] for j in range(3) if j != i]
            assert off[0] == pytest.approx(off[1])

    def test_custom_range(self):
        model = random_markov_model(seed=0, stay_low=0.5, stay_high=0.6)
        diag = np.diag(model.matrix)
        assert np.all(diag >= 0.5) and np.all(diag <= 0.6)

    def test_invalid_range_rejected(self):
        with pytest.raises(InvalidModelError):
            random_markov_model(seed=0, stay_low=0.9, stay_high=0.5)


class TestRandomMarkovModels:
    def test_count(self):
        models = random_markov_models(7, seed=2)
        assert len(models) == 7

    def test_models_differ(self):
        models = random_markov_models(5, seed=3)
        matrices = [m.matrix.tobytes() for m in models]
        assert len(set(matrices)) > 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            random_markov_models(-1, seed=0)

    def test_zero_count(self):
        assert random_markov_models(0, seed=0) == []
