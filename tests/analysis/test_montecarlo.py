"""Monte-Carlo cross-validation of the Theorem 5.1 approximations.

These tests simulate the Markov chains directly and compare the empirical
estimates of ``P₊^(S)`` (probability of being simultaneously UP again before
any failure) and ``E^(S)(W)`` (conditional duration of a W-slot workload)
against the analytical values.  The renewal-mode estimator is the exact
conditional expectation, so the Monte-Carlo estimate must match it within
statistical tolerance; the paper-mode estimator is an upper bound whenever
failures are possible.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from repro.analysis.group import ExpectationMode, GroupAnalysis
from repro.analysis.single import WorkerAnalysis
from repro.availability.generators import paper_transition_matrix
from repro.availability.markov import MarkovAvailabilityModel
from repro.types import DOWN, UP

pytestmark = pytest.mark.slow


def make_models(stays) -> List[MarkovAvailabilityModel]:
    return [MarkovAvailabilityModel(paper_transition_matrix(list(stay))) for stay in stays]


def simulate_gap(models, rng) -> Tuple[bool, int]:
    """Simulate from all-UP until the next all-UP slot or the first failure.

    Returns (success, gap length).
    """
    states = [UP for _ in models]
    t = 0
    while True:
        t += 1
        states = [model.next_state(state, rng) for model, state in zip(models, states)]
        if any(state == DOWN for state in states):
            return False, t
        if all(state == UP for state in states):
            return True, t


def simulate_workload(models, workload, rng) -> Tuple[bool, int]:
    """Simulate a W-slot tightly-coupled computation; returns (success, duration)."""
    remaining = workload - 1  # the first compute slot happens at t = 0
    duration = 1
    states = [UP for _ in models]
    while remaining > 0:
        duration += 1
        states = [model.next_state(state, rng) for model, state in zip(models, states)]
        if any(state == DOWN for state in states):
            return False, duration
        if all(state == UP for state in states):
            remaining -= 1
    return True, duration


class TestProbabilityOfSuccess:
    def test_p_plus_matches_simulation_two_workers(self):
        stays = [(0.93, 0.90, 0.90), (0.95, 0.92, 0.90)]
        models = make_models(stays)
        analysis = GroupAnalysis([WorkerAnalysis(m) for m in models], epsilon=1e-9)
        quantities = analysis.quantities([0, 1])

        rng = np.random.default_rng(1234)
        trials = 20_000
        successes = sum(simulate_gap(models, rng)[0] for _ in range(trials))
        empirical = successes / trials
        assert empirical == pytest.approx(quantities.p_plus, abs=0.015)

    def test_p_plus_matches_simulation_three_workers(self):
        stays = [(0.96, 0.9, 0.9), (0.94, 0.93, 0.9), (0.92, 0.9, 0.95)]
        models = make_models(stays)
        analysis = GroupAnalysis([WorkerAnalysis(m) for m in models], epsilon=1e-9)
        quantities = analysis.quantities([0, 1, 2])

        rng = np.random.default_rng(99)
        trials = 20_000
        successes = sum(simulate_gap(models, rng)[0] for _ in range(trials))
        assert successes / trials == pytest.approx(quantities.p_plus, abs=0.015)

    def test_workload_success_probability_matches_simulation(self):
        stays = [(0.95, 0.9, 0.9), (0.93, 0.9, 0.9)]
        models = make_models(stays)
        analysis = GroupAnalysis([WorkerAnalysis(m) for m in models], epsilon=1e-9)
        quantities = analysis.quantities([0, 1])
        workload = 4

        rng = np.random.default_rng(7)
        trials = 12_000
        successes = sum(simulate_workload(models, workload, rng)[0] for _ in range(trials))
        assert successes / trials == pytest.approx(
            quantities.success_probability(workload), abs=0.02
        )


class TestConditionalExpectedDuration:
    def test_expected_gap_matches_simulation(self):
        stays = [(0.93, 0.9, 0.9), (0.95, 0.92, 0.9)]
        models = make_models(stays)
        analysis = GroupAnalysis([WorkerAnalysis(m) for m in models], epsilon=1e-9)
        quantities = analysis.quantities([0, 1])

        rng = np.random.default_rng(5)
        gaps = []
        for _ in range(20_000):
            success, gap = simulate_gap(models, rng)
            if success:
                gaps.append(gap)
        assert np.mean(gaps) == pytest.approx(quantities.e_c / quantities.p_plus, rel=0.05)

    def test_renewal_expectation_matches_simulation(self):
        stays = [(0.95, 0.9, 0.9), (0.94, 0.92, 0.9)]
        models = make_models(stays)
        analysis = GroupAnalysis([WorkerAnalysis(m) for m in models], epsilon=1e-9)
        quantities = analysis.quantities([0, 1])
        workload = 5

        rng = np.random.default_rng(21)
        durations = []
        for _ in range(15_000):
            success, duration = simulate_workload(models, workload, rng)
            if success:
                durations.append(duration)
        empirical = float(np.mean(durations))
        renewal = quantities.expected_time(workload, ExpectationMode.RENEWAL)
        paper = quantities.expected_time(workload, ExpectationMode.PAPER)
        assert empirical == pytest.approx(renewal, rel=0.05)
        assert paper >= renewal  # the paper's closed form is the conservative one

    def test_no_failure_expected_time_matches_simulation(self):
        # Workers that never crash but are frequently reclaimed.
        matrix = np.array([[0.7, 0.3, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        models = [
            MarkovAvailabilityModel(matrix, down_recoverable=False) for _ in range(2)
        ]
        analysis = GroupAnalysis([WorkerAnalysis(m) for m in models])
        quantities = analysis.quantities([0, 1])
        workload = 6

        rng = np.random.default_rng(3)
        durations = [simulate_workload(models, workload, rng)[1] for _ in range(8_000)]
        expected = quantities.expected_time(workload, ExpectationMode.PAPER)
        assert float(np.mean(durations)) == pytest.approx(expected, rel=0.05)
