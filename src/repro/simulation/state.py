"""Per-worker runtime state tracked by the simulation engine.

For every worker the engine keeps the information needed to apply the
execution model of Section III-C (the worker's availability state is read
from the slot's state column, never stored here):

* whether the worker currently holds the application program (retained across
  iterations and un-enrolments, lost on DOWN);
* the progress of the in-flight program transfer (lost on DOWN and on
  un-enrolment: "any interrupted communication must be resumed from scratch");
* the number of complete task-data messages received for the current
  iteration and enrolment (lost on DOWN and on un-enrolment, reusable when the
  worker stays enrolled across a failure-triggered reallocation);
* the progress of the in-flight data-message transfer;
* the number of tasks currently assigned (``x_q``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WorkerRuntime"]


@dataclass
class WorkerRuntime:
    """Mutable runtime record of one worker inside a simulation run."""

    worker_id: int
    enrolled: bool = False
    assigned_tasks: int = 0
    has_program: bool = False
    program_progress: int = 0
    data_received: int = 0
    data_progress: int = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def comm_slots_remaining(self, tprog: int, tdata: int) -> int:
        """Total slots of master communication still needed by this worker.

        The program transfer (0 slots once the program is held) plus the
        data slots of the assigned tasks not yet received.
        """
        if self.has_program or self.program_progress >= tprog:
            program = 0
        else:
            program = tprog - self.program_progress
        missing = self.assigned_tasks - self.data_received
        if missing <= 0:
            return program
        return program + missing * tdata - self.data_progress

    # ------------------------------------------------------------------
    # Transitions driven by the engine
    # ------------------------------------------------------------------
    def on_down(self) -> None:
        """Apply a DOWN transition: program, data and in-flight transfers are lost."""
        self.has_program = False
        self.program_progress = 0
        self.data_received = 0
        self.data_progress = 0
        self.enrolled = False
        self.assigned_tasks = 0

    def on_unenroll(self) -> None:
        """Remove the worker from the configuration.

        The program is kept (if complete), but partially received program
        slots, received data messages and partial data transfers are lost —
        they must be resent from scratch upon re-enrolment.
        """
        self.enrolled = False
        self.assigned_tasks = 0
        self.program_progress = 0
        self.data_received = 0
        self.data_progress = 0

    def on_enroll(self, tasks: int) -> None:
        """(Re-)enrol the worker with *tasks* assigned tasks.

        Any previously received data is discarded (a newly enrolled worker
        must receive all its task data), but a complete program copy is kept.
        """
        if tasks <= 0:
            raise ValueError(f"tasks must be >= 1 to enroll a worker, got {tasks}")
        self.enrolled = True
        self.assigned_tasks = int(tasks)
        self.data_received = 0
        self.data_progress = 0
        self.program_progress = 0

    def on_reassign(self, tasks: int) -> None:
        """Change the task count of a continuously-enrolled worker.

        Received data messages are reusable up to the new task count
        (Section VI: a worker that has not become DOWN "can reuse that data
        if the scheduler reassigns tasks to it").
        """
        if tasks <= 0:
            raise ValueError(f"tasks must be >= 1 to reassign a worker, got {tasks}")
        self.enrolled = True
        self.assigned_tasks = int(tasks)
        if self.data_received > tasks:
            self.data_received = int(tasks)
            self.data_progress = 0

    def on_new_iteration(self) -> None:
        """Reset per-iteration data state: every iteration needs fresh task data."""
        self.data_received = 0
        self.data_progress = 0

    # ------------------------------------------------------------------
    # Communication progress
    # ------------------------------------------------------------------
    def advance_communication(self, units: int, tprog: int, tdata: int) -> None:
        """Apply *units* consecutive communication slots to this worker at once.

        The program is transferred before task data (a worker cannot use
        data without the program anyway); the slots are applied in O(1)
        arithmetic so a whole grant interval is one call.  *units* must not
        exceed :meth:`comm_slots_remaining`.  Degenerate zero-length
        transfers (``Tprog == 0`` or ``Tdata == 0``) are completed by
        :meth:`absorb_free_transfers` and never reach this method.
        """
        if units <= 0:
            return
        program = 0 if self.has_program else tprog - self.program_progress
        if program > 0:
            take = units if units < program else program
            self.program_progress += take
            units -= take
            if self.program_progress >= tprog:
                self.has_program = True
                self.program_progress = 0
        if units > 0:
            total = self.data_progress + units
            self.data_received += total // tdata
            self.data_progress = total % tdata

    def absorb_free_transfers(self, tprog: int, tdata: int) -> None:
        """Complete any zero-duration transfers (``Tprog == 0`` / ``Tdata == 0``).

        Called by the engine right after (re-)enrolment so that degenerate
        platforms (no communication cost) behave as if messages arrive
        instantly, matching the off-line model with ``Tprog = Tdata = 0``.
        """
        if not self.enrolled:
            return
        if tprog == 0:
            self.has_program = True
            self.program_progress = 0
        if tdata == 0:
            self.data_received = self.assigned_tasks
            self.data_progress = 0
