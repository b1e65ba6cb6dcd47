"""Off-line problem instances (Section IV).

The complexity study of Section IV restricts the general scheduling problem
to its simplest deterministic core: no communication (``Tprog = Tdata = 0``)
and identical workers (``w_q = w``).  An instance is therefore

* an availability trace (the vectors ``S_q``, known in advance),
* the number of tasks per iteration ``m``,
* the per-task computation time ``w``,
* the memory bound ``µ`` (1 for OFF-LINE-COUPLED(µ=1), ``None`` i.e. ∞ for
  OFF-LINE-COUPLED(µ=∞)).

The decision question of the µ=1 variant: are there ``m`` workers that are
simultaneously UP during at least ``w`` time-slots (not necessarily
contiguous)?  For µ=∞ one may also complete an iteration with fewer workers,
at the price of proportionally more UP slots: ``k`` workers need
``ceil(m / k) * w`` common UP slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.availability.trace import AvailabilityTrace
from repro.exceptions import InvalidApplicationError

__all__ = ["OfflineProblem"]


@dataclass(frozen=True)
class OfflineProblem:
    """A deterministic off-line instance (no communication, homogeneous workers)."""

    trace: AvailabilityTrace
    num_tasks: int
    task_slots: int
    capacity: Optional[int] = 1  # µ; None means unbounded (µ = ∞)

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise InvalidApplicationError(f"num_tasks must be >= 1, got {self.num_tasks}")
        if self.task_slots < 1:
            raise InvalidApplicationError(f"task_slots must be >= 1, got {self.task_slots}")
        if self.capacity is not None and self.capacity < 1:
            raise InvalidApplicationError(
                f"capacity must be >= 1 or None (unbounded), got {self.capacity}"
            )

    # ------------------------------------------------------------------
    @property
    def num_processors(self) -> int:
        return self.trace.num_processors

    @property
    def deadline(self) -> int:
        """``N`` — the number of known time-slots."""
        return self.trace.horizon

    @property
    def unbounded_capacity(self) -> bool:
        return self.capacity is None

    def up_matrix(self) -> np.ndarray:
        """Boolean matrix ``up[q, t]``."""
        return self.trace.up_matrix()

    # ------------------------------------------------------------------
    def required_common_slots(self, num_workers: int) -> int:
        """Common UP slots needed to run one iteration on *num_workers* workers.

        With ``k`` workers each holding ``ceil(m / k)`` tasks, the iteration
        needs ``ceil(m / k) * w`` slots of simultaneous computation.  Returns
        a huge sentinel when *num_workers* workers cannot hold ``m`` tasks
        under the capacity bound.
        """
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if self.capacity is not None and num_workers * self.capacity < self.num_tasks:
            return int(np.iinfo(np.int64).max)
        tasks_per_worker = -(-self.num_tasks // num_workers)  # ceil division
        if self.capacity is not None:
            tasks_per_worker = min(tasks_per_worker, self.capacity)
            # Even spreading under a capacity bound: the max per-worker count
            # is ceil(m / k) as long as k * µ >= m, which we already checked.
            tasks_per_worker = -(-self.num_tasks // num_workers)
        return tasks_per_worker * self.task_slots

    def minimum_workers(self) -> int:
        """Smallest number of workers that can hold all ``m`` tasks."""
        if self.capacity is None:
            return 1
        return -(-self.num_tasks // self.capacity)  # ceil(m / µ)
