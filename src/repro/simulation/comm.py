"""Bounded multi-port communication manager.

The master can drive at most ``ncom`` simultaneous transfers per slot
(Section III-B).  Each granted channel moves one slot's worth of program or
task data to one enrolled, UP worker.

The paper does not prescribe how the master chooses which workers to serve
when more than ``ncom`` of them need data; any work-conserving policy is
compatible with the model.  We use a deterministic *sticky* policy that
matches the behaviour illustrated in Figure 1:

* a worker that held a channel in the previous slot keeps it as long as it is
  UP, enrolled and still needs communication (transfers are not needlessly
  preempted);
* remaining channels are granted to eligible workers by ascending worker id.

:meth:`CommunicationManager.serve` is the one place that encodes the policy
for a general state column; the engine's capacity-surplus jump
(:func:`repro.simulation.kernels.comm_phase_span`) covers the case where
every enrolled worker has a channel of its own.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.simulation.state import WorkerRuntime
from repro.types import UP

__all__ = ["CommunicationManager"]

_UP_CODE = int(UP)


class CommunicationManager:
    """Allocates the master's ``ncom`` channels slot by slot."""

    def __init__(self, ncom: int) -> None:
        if ncom < 1:
            raise ValueError(f"ncom must be >= 1, got {ncom}")
        self.ncom = int(ncom)
        self._previous_holders: Set[int] = set()

    def reset(self) -> None:
        """Forget channel stickiness (called at the start of every run)."""
        self._previous_holders.clear()

    def set_holders(self, worker_ids: Iterable[int]) -> None:
        """Overwrite the sticky-holder set.

        Used by the engine's whole-phase fast-forward
        (:func:`repro.simulation.kernels.comm_phase_span`) to leave the
        stickiness state exactly as :meth:`serve` would have: the grant set
        of the last consumed communication slot.
        """
        self._previous_holders = set(worker_ids)

    # ------------------------------------------------------------------
    def serve(
        self,
        runtimes: Sequence[WorkerRuntime],
        remaining: Sequence[int],
        column: Sequence[int],
        span: int,
        *,
        tprog: int,
        tdata: int,
        served: Optional[Dict[int, str]] = None,
    ) -> Tuple[int, bool]:
        """Serve up to *span* communication slots under one state column.

        Parameters
        ----------
        runtimes:
            The enrolled workers' runtime records, in ascending worker order.
        remaining:
            Their communication slots still needed
            (:meth:`WorkerRuntime.comm_slots_remaining`), in the same order.
            A worker is eligible when it is UP and still needs a slot; at
            most ``ncom`` eligible workers hold a channel in any slot.
        column:
            The state code of every worker (indexed by worker id), the same
            in each of the *span* slots.
        span:
            The number of slots to serve at most.
        tprog, tdata:
            Transfer durations.
        served:
            When given, filled with worker id -> ``"program"`` or ``"data"``
            for each worker granted a channel: what its first granted slot
            carried (for the event log).

        Under the sticky policy the grant set changes only when a transfer
        completes, so each grant interval is applied in one batch through
        :meth:`WorkerRuntime.advance_communication`.  Serving stops early at
        the first slot that is no longer a communication slot (every
        transfer is done); a slot where only non-UP workers still need
        transfers is a communication slot with an empty grant.  The
        sticky-holder set is left as the grant set of the last served slot.

        Returns
        -------
        The number of slots consumed, and whether a worker completed its
        program transfer within them.
        """
        # [worker id, runtime, slots needed] of the eligible workers, ascending.
        eligible = []
        stalled = False
        for runtime, needed in zip(runtimes, remaining):
            if needed > 0:
                worker = runtime.worker_id
                if column[worker] == _UP_CODE:
                    eligible.append([worker, runtime, needed])
                else:
                    stalled = True
        ncom = self.ncom
        previous = self._previous_holders
        # Sticky channels first, then the rest, each in ascending worker order.
        granted = [entry for entry in eligible if entry[0] in previous]
        granted += [entry for entry in eligible if entry[0] not in previous]
        # Whoever waits is a non-holder once the first slot is served.
        waiting = sorted(granted[ncom:])
        del granted[ncom:]
        consumed = 0
        program_completed = False
        while granted:
            step = min(entry[2] for entry in granted)
            if step > span - consumed:
                step = span - consumed
            for entry in granted:
                runtime = entry[1]
                had_program = runtime.has_program
                if served is not None:
                    served.setdefault(entry[0], "data" if had_program else "program")
                runtime.advance_communication(step, tprog, tdata)
                if runtime.has_program and not had_program:
                    program_completed = True
                entry[2] -= step
            consumed += step
            self._previous_holders = {entry[0] for entry in granted}
            if consumed == span:
                return consumed, program_completed
            granted = [entry for entry in granted if entry[2]]
            while waiting and len(granted) < ncom:
                granted.append(waiting.pop(0))
        if stalled:
            # Every slot left is a stalled communication slot with an empty
            # grant, which clears the sticky set.
            self._previous_holders = set()
            return span, program_completed
        return consumed, program_completed
