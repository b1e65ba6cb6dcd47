"""ENCD (Exact Node Cardinality Decision) and the reductions of Theorem 4.1.

ENCD: given a bipartite graph ``G = (V ∪ W, E)`` and integers ``a``, ``b``,
does ``G`` contain a bi-clique with exactly ``a`` nodes in ``V`` and exactly
``b`` nodes in ``W``?  (Dawande et al., J. Algorithms 2001.)

Theorem 4.1 reduces ENCD to both off-line variants:

* **µ = 1**: ``p = |V|`` processors, ``N = |W|`` slots; processor *i* is UP at
  slot *j* iff ``(v_i, w_j) ∈ E``; ask for ``m = a`` workers simultaneously UP
  during ``w = b`` slots.
* **µ = ∞**: same UP matrix over the first ``|W|`` slots, followed by
  ``|W| + 1`` extra slots where *every* processor is UP; ask for ``m = a``
  and ``w = b + |W| + 1``.  The padding forces any solution to use exactly
  ``a`` distinct processors (with fewer, two tasks would pile up on one
  worker and ``2w > N`` slots would be needed).

This module provides the instance class, both reductions, the reverse mapping
(extracting a bi-clique from an off-line solution) and a brute-force ENCD
solver used to cross-check the reductions in the test-suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Set, Tuple

import numpy as np

from repro.availability.trace import AvailabilityTrace
from repro.exceptions import InvalidModelError
from repro.offline.problem import OfflineProblem
from repro.types import DOWN, UP

__all__ = [
    "ENCDInstance",
    "encd_to_offline_mu1",
    "encd_to_offline_mu_inf",
    "biclique_from_offline_solution",
    "solve_encd_bruteforce",
]


@dataclass(frozen=True)
class ENCDInstance:
    """An ENCD instance: bipartite adjacency + the two exact cardinalities."""

    #: adjacency[i][j] is True iff (v_i, w_j) is an edge.
    adjacency: Tuple[Tuple[bool, ...], ...]
    a: int
    b: int

    def __post_init__(self) -> None:
        if not self.adjacency or not self.adjacency[0]:
            raise InvalidModelError("the bipartite graph must have at least one node on each side")
        widths = {len(row) for row in self.adjacency}
        if len(widths) != 1:
            raise InvalidModelError("adjacency rows must all have the same length")
        if not (1 <= self.a <= len(self.adjacency)):
            raise InvalidModelError(f"a must lie in [1, |V|] = [1, {len(self.adjacency)}], got {self.a}")
        if not (1 <= self.b <= len(self.adjacency[0])):
            raise InvalidModelError(
                f"b must lie in [1, |W|] = [1, {len(self.adjacency[0])}], got {self.b}"
            )

    # ------------------------------------------------------------------
    @property
    def num_left(self) -> int:
        """``|V|``."""
        return len(self.adjacency)

    @property
    def num_right(self) -> int:
        """``|W|``."""
        return len(self.adjacency[0])

    def matrix(self) -> np.ndarray:
        """Adjacency as a boolean NumPy matrix of shape ``(|V|, |W|)``."""
        return np.array(self.adjacency, dtype=bool)

    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(cls, matrix: np.ndarray, a: int, b: int) -> "ENCDInstance":
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise InvalidModelError("adjacency matrix must be 2-D")
        adjacency = tuple(tuple(bool(x) for x in row) for row in matrix)
        return cls(adjacency, a, b)

    @classmethod
    def random(
        cls,
        num_left: int,
        num_right: int,
        edge_probability: float,
        a: int,
        b: int,
        seed=None,
    ) -> "ENCDInstance":
        """A random Erdős–Rényi bipartite instance (for tests and benches)."""
        rng = np.random.default_rng(seed)
        matrix = rng.random((num_left, num_right)) < edge_probability
        return cls.from_matrix(matrix, a, b)


# ----------------------------------------------------------------------
# Reductions of Theorem 4.1
# ----------------------------------------------------------------------
def encd_to_offline_mu1(instance: ENCDInstance) -> OfflineProblem:
    """Reduction (i): ENCD -> OFF-LINE-COUPLED(µ = 1)."""
    matrix = instance.matrix()
    states = np.where(matrix, int(UP), int(DOWN)).astype(np.int8)
    trace = AvailabilityTrace(states)
    return OfflineProblem(
        trace=trace, num_tasks=instance.a, task_slots=instance.b, capacity=1
    )


def encd_to_offline_mu_inf(instance: ENCDInstance) -> OfflineProblem:
    """Reduction (ii): ENCD -> OFF-LINE-COUPLED(µ = ∞).

    The availability matrix is padded with ``|W| + 1`` all-UP slots and the
    workload per task becomes ``b + |W| + 1``.
    """
    matrix = instance.matrix()
    padding = np.ones((instance.num_left, instance.num_right + 1), dtype=bool)
    padded = np.hstack([matrix, padding])
    states = np.where(padded, int(UP), int(DOWN)).astype(np.int8)
    trace = AvailabilityTrace(states)
    return OfflineProblem(
        trace=trace,
        num_tasks=instance.a,
        task_slots=instance.b + instance.num_right + 1,
        capacity=None,
    )


def biclique_from_offline_solution(
    instance: ENCDInstance,
    workers: Iterable[int],
    slots: Iterable[int],
) -> Tuple[Set[int], Set[int]]:
    """Map an off-line solution back to an ENCD bi-clique (the proof's reverse direction).

    *workers* index ``V``; *slots* index the trace's time-slots.  Slots beyond
    ``|W|`` (the all-UP padding of the µ=∞ reduction) are dropped; the
    remaining slots index ``W``.  The returned pair is a bi-clique of the
    original graph; a ``ValueError`` is raised if it is not (i.e. the
    "solution" was not actually feasible).
    """
    matrix = instance.matrix()
    left = {int(w) for w in workers}
    right = {int(t) for t in slots if int(t) < instance.num_right}
    for i in left:
        for j in right:
            if not matrix[i, j]:
                raise ValueError(
                    f"({i}, {j}) is not an edge: the given worker/slot sets are not a bi-clique"
                )
    return left, right


# ----------------------------------------------------------------------
# Exact ENCD solver (used to validate the reductions)
# ----------------------------------------------------------------------
def solve_encd_bruteforce(
    instance: ENCDInstance,
) -> Optional[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """Find a bi-clique with exactly ``a`` left and ``b`` right nodes, or ``None``.

    Enumerates all ``a``-subsets of the smaller-degree side and checks whether
    the common neighbourhood is large enough (any bi-clique can be trimmed to
    the exact cardinalities, so "at least b" suffices).  Exponential — only
    for the small instances used in tests and in the off-line benchmark.
    """
    matrix = instance.matrix()
    for left_subset in itertools.combinations(range(instance.num_left), instance.a):
        common = np.logical_and.reduce(matrix[list(left_subset), :], axis=0)
        columns = np.flatnonzero(common)
        if columns.size >= instance.b:
            return frozenset(left_subset), frozenset(int(c) for c in columns[: instance.b])
    return None
