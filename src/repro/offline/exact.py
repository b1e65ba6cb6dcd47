"""Exact solvers for the off-line decision problems (exponential time).

These solvers are only meant for the small instances used to validate the
Theorem 4.1 reductions and to provide a clairvoyant reference in the off-line
benchmark; the problems are NP-hard, so no polynomial algorithm is expected.

* :func:`solve_offline_mu1` — OFF-LINE-COUPLED(µ = 1): find ``m`` workers
  simultaneously UP during at least ``w`` (not necessarily contiguous)
  slots.
* :func:`solve_offline_mu_inf` — OFF-LINE-COUPLED(µ = ∞): additionally allow
  ``k < m`` workers, each holding ``ceil(m / k)`` tasks, at the price of
  ``ceil(m / k) · w`` common UP slots.

Both enumerate worker subsets (smallest cardinality first for µ=∞, so the
returned solution uses as few workers as possible) and count common UP slots
with vectorised NumPy reductions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

import numpy as np

from repro.offline.problem import OfflineProblem

__all__ = ["OfflineSolution", "solve_offline_mu1", "solve_offline_mu_inf"]


@dataclass(frozen=True)
class OfflineSolution:
    """A feasible single-iteration schedule for an off-line instance."""

    #: Enrolled workers.
    workers: FrozenSet[int]
    #: Slots (ascending) during which all enrolled workers are UP and compute.
    slots: Tuple[int, ...]
    #: Tasks per enrolled worker (``ceil(m / k)`` in the homogeneous case).
    tasks_per_worker: int

    @property
    def num_slots(self) -> int:
        return len(self.slots)


def _common_up_slots(up_matrix: np.ndarray, workers: Tuple[int, ...]) -> np.ndarray:
    """Slots at which all *workers* are UP."""
    mask = np.logical_and.reduce(up_matrix[list(workers), :], axis=0)
    return np.flatnonzero(mask)


def solve_offline_mu1(problem: OfflineProblem) -> Optional[OfflineSolution]:
    """Exact solution of OFF-LINE-COUPLED(µ = 1), or ``None`` if infeasible.

    Requires ``problem.capacity == 1``.  Among feasible worker sets, the one
    whose ``w``-th common UP slot comes earliest is returned (earliest
    completion of the iteration).
    """
    if problem.capacity != 1:
        raise ValueError("solve_offline_mu1 requires an instance with capacity µ = 1")
    up = problem.up_matrix()
    m, w = problem.num_tasks, problem.task_slots
    if m > problem.num_processors:
        return None
    best: Optional[OfflineSolution] = None
    best_completion = None
    for workers in itertools.combinations(range(problem.num_processors), m):
        slots = _common_up_slots(up, workers)
        if slots.size >= w:
            completion = int(slots[w - 1])
            if best_completion is None or completion < best_completion:
                best_completion = completion
                best = OfflineSolution(
                    workers=frozenset(workers),
                    slots=tuple(int(s) for s in slots[:w]),
                    tasks_per_worker=1,
                )
    return best


def solve_offline_mu_inf(problem: OfflineProblem) -> Optional[OfflineSolution]:
    """Exact solution of OFF-LINE-COUPLED(µ = ∞), or ``None`` if infeasible.

    Worker-set cardinalities ``k = m, m-1, ..., 1`` are all considered; with
    ``k`` workers an iteration needs ``ceil(m / k) · w`` common UP slots.  The
    returned solution is the one with the earliest completion slot (ties
    broken towards more workers, i.e. fewer tasks per worker).
    """
    if problem.capacity is not None:
        raise ValueError("solve_offline_mu_inf requires an instance with unbounded capacity")
    up = problem.up_matrix()
    m, w = problem.num_tasks, problem.task_slots
    best: Optional[OfflineSolution] = None
    best_completion = None
    max_workers = min(m, problem.num_processors)
    for k in range(max_workers, 0, -1):
        tasks_per_worker = -(-m // k)  # ceil(m / k)
        needed = tasks_per_worker * w
        if needed > problem.deadline:
            continue
        for workers in itertools.combinations(range(problem.num_processors), k):
            slots = _common_up_slots(up, workers)
            if slots.size >= needed:
                completion = int(slots[needed - 1])
                if best_completion is None or completion < best_completion:
                    best_completion = completion
                    best = OfflineSolution(
                        workers=frozenset(workers),
                        slots=tuple(int(s) for s in slots[:needed]),
                        tasks_per_worker=tasks_per_worker,
                    )
    return best
