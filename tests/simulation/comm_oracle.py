"""Slot-by-slot reference for the sticky channel policy.

:class:`SlotByReference` grants the master's ``ncom`` channels one slot at a
time and advances each granted transfer by one slot (program first, then
data messages), with none of the batching of
:meth:`repro.simulation.comm.CommunicationManager.serve`.  It is the
reference that ``serve`` is checked against in ``test_comm.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.simulation.state import WorkerRuntime
from repro.types import UP


def receive_slot(runtime: WorkerRuntime, tprog: int, tdata: int) -> str:
    """Advance *runtime*'s transfer by one slot; return ``"program"`` or ``"data"``."""
    if not runtime.has_program and runtime.program_progress < tprog:
        runtime.program_progress += 1
        if runtime.program_progress >= tprog:
            runtime.has_program = True
            runtime.program_progress = 0
        return "program"
    if runtime.data_received < runtime.assigned_tasks:
        runtime.data_progress += 1
        if runtime.data_progress >= tdata:
            runtime.data_received += 1
            runtime.data_progress = 0
        return "data"
    raise RuntimeError(
        f"worker {runtime.worker_id} was granted a communication slot but needs none"
    )


class SlotByReference:
    """The sticky policy, one slot per :meth:`step`."""

    def __init__(self, ncom: int, holders: Iterable[int] = ()) -> None:
        self.ncom = ncom
        self.holders = set(holders)

    def step(
        self,
        runtimes: Sequence[WorkerRuntime],
        column: Sequence[int],
        *,
        tprog: int,
        tdata: int,
        served: Optional[Dict[int, str]] = None,
    ) -> bool:
        """Serve one slot; return whether a worker completed its program transfer."""
        eligible = [
            runtime
            for runtime in runtimes
            if runtime.comm_slots_remaining(tprog, tdata) > 0
            and column[runtime.worker_id] == int(UP)
        ]
        # Sticky channels first, then the rest, each in ascending worker order.
        granted = [runtime for runtime in eligible if runtime.worker_id in self.holders]
        granted += [runtime for runtime in eligible if runtime.worker_id not in self.holders]
        del granted[self.ncom:]
        self.holders = {runtime.worker_id for runtime in granted}
        completed = False
        for runtime in granted:
            received = receive_slot(runtime, tprog, tdata)
            if served is not None:
                served[runtime.worker_id] = received
            if received == "program" and runtime.has_program:
                completed = True
        return completed

    def run(
        self,
        runtimes: Sequence[WorkerRuntime],
        column: Sequence[int],
        span: int,
        *,
        tprog: int,
        tdata: int,
        served: Optional[Dict[int, str]] = None,
    ) -> Tuple[int, bool]:
        """Up to *span* slots under *column*, stopping once no transfer is owed.

        Returns the slots consumed and whether a program transfer completed;
        *served*, when given, keeps what each worker's first granted slot
        carried.
        """
        consumed = 0
        completed = False
        while consumed < span and any(
            runtime.comm_slots_remaining(tprog, tdata) for runtime in runtimes
        ):
            slot_served: Dict[int, str] = {}
            completed |= self.step(
                runtimes, column, tprog=tprog, tdata=tdata, served=slot_served
            )
            if served is not None:
                for worker, kind in slot_served.items():
                    served.setdefault(worker, kind)
            consumed += 1
        return consumed, completed
