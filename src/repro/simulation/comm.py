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

The policy is isolated here so alternative policies (e.g. shortest-remaining-
transfer-first) can be benchmarked without touching the engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set

from repro.simulation.state import WorkerRuntime
from repro.types import UP

__all__ = ["CommunicationManager"]


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
        stickiness state exactly as the slot-by-slot :meth:`step` calls
        would have: the grant set of the last consumed communication slot.
        """
        self._previous_holders = {int(worker) for worker in worker_ids}

    # ------------------------------------------------------------------
    def step(
        self,
        runtimes: Sequence[WorkerRuntime],
        remaining: Sequence[int],
        *,
        tprog: int,
        tdata: int,
        served: Optional[Dict[int, str]] = None,
    ) -> bool:
        """Grant this slot's channels and advance the granted transfers by one slot.

        Parameters
        ----------
        runtimes:
            The enrolled workers' runtime records, in ascending worker order.
        remaining:
            Their communication slots still needed
            (:meth:`WorkerRuntime.comm_slots_remaining`), in the same order.
            A worker is eligible when it is UP and still needs a slot; at
            most ``ncom`` eligible workers are granted a channel.
        tprog, tdata:
            Transfer durations.
        served:
            When given, filled with worker id -> ``"program"`` or ``"data"``
            for each granted worker: what it received (for the event log).

        Returns
        -------
        Whether a worker completed its program transfer this slot.
        """
        eligible = [
            runtime
            for runtime, needed in zip(runtimes, remaining)
            if needed > 0 and runtime.state == UP
        ]
        if not eligible:
            self._previous_holders = set()
            return False
        previous = self._previous_holders
        # Sticky channels first, then the rest, each in ascending worker order.
        granted = [runtime for runtime in eligible if runtime.worker_id in previous]
        if len(granted) < self.ncom:
            granted += [runtime for runtime in eligible if runtime.worker_id not in previous]
        del granted[self.ncom:]
        self._previous_holders = {runtime.worker_id for runtime in granted}
        program_completed = False
        for runtime in granted:
            received = runtime.receive_communication_slot(tprog, tdata)
            if served is not None:
                served[runtime.worker_id] = received
            if received == "program" and runtime.has_program:
                program_completed = True
        return program_completed

    # ------------------------------------------------------------------
    def drain(
        self,
        enrolled_runtimes: Sequence[WorkerRuntime],
        span: int,
        *,
        tprog: int,
        tdata: int,
    ) -> int:
        """Fast-forward up to *span* communication slots with frozen states.

        Event-driven equivalent of calling :meth:`step` once per slot while
        no worker changes availability state: under the sticky policy the
        granted set only changes when a transfer completes, so each grant
        interval is applied in one batch through
        :meth:`WorkerRuntime.advance_communication`.  Returns the number of
        slots consumed — stopping at the first slot that is no longer a
        communication slot (all transfers done) or at *span* — and leaves
        the sticky-holder set exactly as the slot-by-slot calls would have.

        This is the one other place besides :meth:`step` that encodes
        the channel-allocation policy; an alternative policy must replace
        both (or simply not offer a drain, at the cost of per-slot
        fast-forwarding in the engine).
        """
        if span <= 0:
            return 0
        active: Dict[int, int] = {}
        stalled_remaining = 0
        for runtime in enrolled_runtimes:
            remaining = runtime.comm_slots_remaining(tprog, tdata)
            if remaining > 0:
                if runtime.is_up():
                    active[runtime.worker_id] = remaining
                else:
                    stalled_remaining += remaining
        runtime_by_id = {r.worker_id: r for r in enrolled_runtimes}
        previous = self._previous_holders
        granted = sorted(w for w in active if w in previous)
        granted += sorted(w for w in active if w not in previous)
        granted = granted[: self.ncom]
        waiting = sorted(w for w in active if w not in granted)
        consumed = 0
        final_granted = None
        while consumed < span and active:
            step = min(active[w] for w in granted)
            if step > span - consumed:
                step = span - consumed
            for w in granted:
                runtime_by_id[w].advance_communication(step, tprog, tdata)
                active[w] -= step
            consumed += step
            # The sticky set after these slots is the grant set *they* used,
            # not the refilled one computed for the next interval.
            final_granted = granted
            finished = [w for w in granted if active[w] == 0]
            if finished:
                for w in finished:
                    del active[w]
                granted = [w for w in granted if w in active]
                while waiting and len(granted) < self.ncom:
                    granted.append(waiting.pop(0))
        if final_granted is not None:
            self._previous_holders = set(final_granted)
        if not active and stalled_remaining > 0 and consumed < span:
            # Only RECLAIMED workers still owe transfers: every remaining
            # frozen slot is a stalled comm slot with no eligible worker,
            # which the slot-by-slot policy answers with an empty grant
            # (and a cleared sticky set).
            self._previous_holders = set()
            consumed = span
        return consumed
