"""Tests for empirical availability statistics."""

import numpy as np
import pytest

from repro.availability.statistics import (
    TraceStatistics,
    estimate_markov_matrix,
    state_intervals,
    state_runs,
    transition_counts,
)
from repro.types import DOWN, RECLAIMED, UP


class TestTransitionCounts:
    def test_simple_sequence(self):
        counts = transition_counts([0, 0, 1, 2, 0])
        assert counts[0, 0] == 1
        assert counts[0, 1] == 1
        assert counts[1, 2] == 1
        assert counts[2, 0] == 1
        assert counts.sum() == 4

    def test_accepts_state_chars(self):
        counts = transition_counts(list("uurd"))
        assert counts[0, 0] == 1
        assert counts[1, 2] == 1

    def test_short_sequences(self):
        assert transition_counts([]).sum() == 0
        assert transition_counts([1]).sum() == 0

    def test_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            transition_counts([0, 7])


class TestEstimateMarkovMatrix:
    def test_rows_are_stochastic(self):
        matrix = estimate_markov_matrix([0, 0, 1, 0, 2, 2, 0])
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_unobserved_state_is_absorbing(self):
        matrix = estimate_markov_matrix([0, 0, 0])
        assert matrix[1].tolist() == [0.0, 1.0, 0.0]
        assert matrix[2].tolist() == [0.0, 0.0, 1.0]

    def test_prior_smoothing_removes_zeros(self):
        matrix = estimate_markov_matrix([0, 0, 0, 1, 0], prior=0.5)
        assert np.all(matrix[0] > 0)

    def test_negative_prior_rejected(self):
        with pytest.raises(ValueError):
            estimate_markov_matrix([0, 1], prior=-1)


class TestStateIntervals:
    def test_runs(self):
        intervals = state_intervals(list("uuurrduu"))
        assert intervals[UP] == [3, 2]
        assert intervals[RECLAIMED] == [2]
        assert intervals[DOWN] == [1]

    def test_empty(self):
        intervals = state_intervals([])
        assert intervals[UP] == [] and intervals[DOWN] == []

    def test_single_run(self):
        assert state_intervals([0, 0, 0])[UP] == [3]


class TestStateRuns:
    def test_run_length_encoding(self):
        assert state_runs(list("uuurrduu")) == [(UP, 3), (RECLAIMED, 2), (DOWN, 1), (UP, 2)]

    def test_empty(self):
        assert state_runs([]) == []


class TestCensorEdges:
    def test_drops_first_and_last_run(self):
        intervals = state_intervals(list("uuurrduu"), censor_edges=True)
        assert intervals[UP] == []  # both UP runs touch an edge
        assert intervals[RECLAIMED] == [2]
        assert intervals[DOWN] == [1]

    def test_single_run_is_doubly_censored(self):
        intervals = state_intervals([0, 0, 0], censor_edges=True)
        assert intervals[UP] == []

    def test_default_keeps_edges(self):
        # Pinned historical behaviour: edge runs count as complete intervals.
        assert state_intervals(list("uuurrduu"))[UP] == [3, 2]

    def test_trace_statistics_censoring_removes_short_bias(self):
        # The long edge runs are censored; only the complete length-2 UP run
        # remains, so the censored mean is not dragged up by the edges.
        sequence = list("u" * 50 + "r" + "uu" + "r" + "u" * 50)
        biased = TraceStatistics.from_sequence(sequence)
        censored = TraceStatistics.from_sequence(sequence, censor_edges=True)
        assert biased.mean_up_interval > 30
        assert censored.mean_up_interval == pytest.approx(2.0)
        # Occupancy fractions and failure counts are unaffected.
        assert censored.up_fraction == biased.up_fraction
        assert censored.num_failures == biased.num_failures


class TestTraceStatistics:
    def test_fractions_sum_to_one(self):
        stats = TraceStatistics.from_sequence(list("uuurrdduuu"))
        assert stats.up_fraction + stats.reclaimed_fraction + stats.down_fraction == pytest.approx(1.0)

    def test_failure_count(self):
        stats = TraceStatistics.from_sequence(list("uudduudu"))
        assert stats.num_failures == 2

    def test_failure_count_starting_down(self):
        stats = TraceStatistics.from_sequence(list("duu"))
        assert stats.num_failures == 1

    def test_mean_intervals(self):
        stats = TraceStatistics.from_sequence(list("uuruu"))
        assert stats.mean_up_interval == pytest.approx(2.0)
        assert stats.mean_reclaimed_interval == pytest.approx(1.0)
        assert stats.mean_down_interval == 0.0

    def test_empty_sequence(self):
        stats = TraceStatistics.from_sequence([])
        assert stats.length == 0
        assert stats.up_fraction == 0.0
