"""Exact joint-chain Theorem 5.1 quantities, kept as the analysis test oracle.

The approximations of :mod:`repro.analysis.group` rest on two ingredients:
(i) the truncation of the series ``Eu(S)`` / ``A(S)`` at a finite horizon and
(ii) the renewal argument turning the first-return quantities into
``P₊ = Eu/(1+Eu)`` and the closed-form ``E^(S)(W)``.  Both can be validated
against an *exact* computation on the joint Markov chain of the worker set:

* the joint state space is the product of the per-worker non-failure states
  ``{UP, RECLAIMED}`` plus one absorbing FAILED state (any worker DOWN);
* the probability of hitting the all-UP state before FAILED, and the expected
  hitting time conditioned on success, follow from standard linear systems on
  that chain (size ``2^|S| + 1`` — exact but exponential, hence "small sets");
* the conditional expectation of a ``W``-slot workload follows by the renewal
  argument, which is exact because the all-UP state is a regeneration point.

``test_exact.py`` validates it against Monte-Carlo simulation and then uses
it as the ground truth for :mod:`repro.analysis.group` on small worker sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.availability.markov import MarkovAvailabilityModel

__all__ = ["ExactGroupQuantities", "exact_group_quantities", "exact_expected_time"]

#: Safety bound on the joint state-space size (2^n states).
MAX_EXACT_WORKERS = 14


@dataclass(frozen=True)
class ExactGroupQuantities:
    """Exact counterparts of the Theorem 5.1 quantities for one worker set."""

    #: Probability that the set is simultaneously UP again before any failure.
    p_plus: float
    #: Conditional expectation of the gap until that happens (given success).
    expected_gap: float

    def success_probability(self, workload: int) -> float:
        """Exact probability that a *workload*-slot computation sees no failure."""
        if workload <= 1:
            return 1.0
        return self.p_plus ** (workload - 1)

    def expected_time(self, workload: int) -> float:
        """Exact conditional expected duration of a *workload*-slot computation."""
        if workload <= 0:
            return 0.0
        if self.p_plus == 0.0 and workload > 1:
            return math.inf
        return 1.0 + (workload - 1) * self.expected_gap


def _joint_transition_system(
    models: Sequence[MarkovAvailabilityModel],
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Build the joint {UP, RECLAIMED}^n chain with an absorbing failure state.

    Returns ``(transition, failure_probability, all_up_index)`` where
    ``transition[i, j]`` is the one-step probability of moving from joint
    state *i* to joint state *j* without any worker failing, and
    ``failure_probability[i]`` the probability of at least one worker going
    DOWN from joint state *i*.
    """
    n = len(models)
    submatrices = [model.up_reclaimed_submatrix() for model in models]
    failure_rows = [
        1.0 - model.up_reclaimed_submatrix().sum(axis=1) for model in models
    ]  # per-worker probability of failing from UP (index 0) / RECLAIMED (index 1)

    states = list(itertools.product((0, 1), repeat=n))  # 0 = UP, 1 = RECLAIMED
    index_of = {state: i for i, state in enumerate(states)}
    size = len(states)
    transition = np.zeros((size, size))
    failure = np.zeros(size)

    for i, state in enumerate(states):
        survive = 1.0
        for worker, worker_state in enumerate(state):
            survive *= 1.0 - failure_rows[worker][worker_state]
        failure[i] = 1.0 - survive
        # Enumerate joint successor states among the non-failure states.
        for successor in states:
            probability = 1.0
            for worker, (from_state, to_state) in enumerate(zip(state, successor)):
                probability *= submatrices[worker][from_state, to_state]
                if probability == 0.0:
                    break
            transition[i, index_of[successor]] = probability
    all_up_index = index_of[tuple([0] * n)]
    return transition, failure, all_up_index


def exact_group_quantities(
    models: Sequence[MarkovAvailabilityModel],
) -> ExactGroupQuantities:
    """Exact ``P₊`` and conditional expected gap for a set of Markov workers.

    All workers are assumed UP at time 0 (the setting of Definition 1/2 of
    the paper).  Complexity is ``O(4^n)`` in the number of workers; a
    :class:`ValueError` is raised beyond :data:`MAX_EXACT_WORKERS`.
    """
    if not models:
        return ExactGroupQuantities(p_plus=1.0, expected_gap=1.0)
    if len(models) > MAX_EXACT_WORKERS:
        raise ValueError(
            f"exact computation supports at most {MAX_EXACT_WORKERS} workers, "
            f"got {len(models)}"
        )
    transition, _failure, all_up = _joint_transition_system(models)
    size = transition.shape[0]

    # First-passage analysis to the all-UP state, with failure absorbing.
    # Let h[i] = P(hit all-UP before failure | current joint state i, one step
    # already taken from the conditioning instant).  For the quantity P+ we
    # start *at* all-UP and take at least one step, so
    #   P+ = sum_j T[all_up, j] * g[j]
    # where g[j] = 1 if j == all_up else h[j], and for j != all_up
    #   h[j] = sum_k T[j, k] * g[k].
    # Solve the linear system for h over the non-all-UP states.
    other = [i for i in range(size) if i != all_up]
    if other:
        t_oo = transition[np.ix_(other, other)]
        t_oa = transition[np.ix_(other, [all_up])].ravel()
        identity = np.eye(len(other))
        # lstsq instead of solve: joint states that are unreachable from the
        # all-UP state (e.g. "everybody reclaimed" for processors that never
        # leave UP) can make the system singular, but their values do not
        # influence P+ because the corresponding transition weights are zero.
        h_other, *_ = np.linalg.lstsq(identity - t_oo, t_oa, rcond=None)
    else:
        h_other = np.empty(0)
    g = np.empty(size)
    g[all_up] = 1.0
    for position, index in enumerate(other):
        g[index] = h_other[position]
    p_plus = float(transition[all_up] @ g)

    # Expected hitting time conditioned on success: use the standard
    # h-transform.  Define u[i] = E[steps to reach all-UP * 1{success} | i].
    # Then for i != all_up:  u[i] = sum_k T[i,k] * (g[k] + u[k])  with
    # u[all_up] = 0, and the conditional expected gap is
    #   E[gap | success] = (sum_j T[all_up, j] (g[j] + u[j])) / P+.
    if other:
        rhs = transition[np.ix_(other, range(size))] @ g
        u_other, *_ = np.linalg.lstsq(identity - t_oo, rhs, rcond=None)
    else:
        u_other = np.empty(0)
    u = np.zeros(size)
    for position, index in enumerate(other):
        u[index] = u_other[position]
    numerator = float(transition[all_up] @ (g + u))
    expected_gap = numerator / p_plus if p_plus > 0 else math.inf

    return ExactGroupQuantities(p_plus=p_plus, expected_gap=expected_gap)


def exact_expected_time(
    models: Sequence[MarkovAvailabilityModel], workload: int
) -> float:
    """Exact conditional expected duration of a *workload*-slot computation."""
    return exact_group_quantities(models).expected_time(workload)
