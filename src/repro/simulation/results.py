"""Simulation results: per-iteration records and run-level summary.

The paper's quality metric is the *makespan*: the number of time-slots needed
to complete a fixed number of iterations (10 in the paper's campaign).  Runs
that exceed the makespan cap are declared failed, mirroring the paper's
treatment ("we limit the makespan to 1,000,000 seconds and declare that a
heuristic fails if it reaches this limit").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["IterationRecord", "SimulationResult"]


@dataclass
class IterationRecord:
    """Book-keeping for one completed (or attempted) application iteration."""

    index: int
    start_slot: int
    end_slot: Optional[int] = None
    restarts: int = 0
    configuration_changes: int = 0
    communication_slots: int = 0
    computation_slots: int = 0
    idle_slots: int = 0

    @property
    def completed(self) -> bool:
        return self.end_slot is not None

    @property
    def duration(self) -> Optional[int]:
        """Slots from iteration start to completion (inclusive), or ``None``."""
        if self.end_slot is None:
            return None
        return self.end_slot - self.start_slot + 1


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    #: Name of the scheduler that produced the run.
    scheduler: str
    #: Whether the requested number of iterations completed within the cap.
    success: bool
    #: Slots needed to complete all iterations (``None`` when ``success`` is False).
    makespan: Optional[int]
    #: Number of iterations completed before the run ended.
    completed_iterations: int
    #: Number of iterations requested.
    requested_iterations: int
    #: The makespan cap that was in force.
    max_slots: int
    #: Per-iteration records (includes the unfinished final iteration, if any).
    iterations: List[IterationRecord] = field(default_factory=list)
    #: Total iteration restarts caused by worker failures.
    total_restarts: int = 0
    #: Total configuration changes (including failure-triggered rebuilds).
    total_configuration_changes: int = 0
    #: Slot-level activity totals over the whole run.
    communication_slots: int = 0
    computation_slots: int = 0
    idle_slots: int = 0

    # ------------------------------------------------------------------
    def effective_makespan(self, penalty: Optional[int] = None) -> int:
        """Makespan, substituting *penalty* (default: the cap) for failed runs.

        The experiment metrics need a numeric value even for failed runs when
        aggregating; the paper simply discards failed runs for %diff but
        counts them in ``#fails``.
        """
        if self.success and self.makespan is not None:
            return self.makespan
        return int(penalty if penalty is not None else self.max_slots)

    def mean_iteration_duration(self) -> Optional[float]:
        durations = [record.duration for record in self.iterations if record.completed]
        if not durations:
            return None
        return float(sum(durations)) / len(durations)

    def describe(self) -> str:
        status = "ok" if self.success else "FAILED"
        return (
            f"{self.scheduler}: {status}, makespan={self.makespan}, "
            f"iterations={self.completed_iterations}/{self.requested_iterations}, "
            f"restarts={self.total_restarts}, reconfigs={self.total_configuration_changes}"
        )
