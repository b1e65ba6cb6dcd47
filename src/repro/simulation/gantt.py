"""ASCII Gantt rendering of a simulated execution, in the style of Figure 1.

The paper's Figure 1 shows, for every processor and time-slot, the
availability state (white = UP, gray = RECLAIMED, black = DOWN) and the
activity ("P" receiving the program, "D" receiving task data, "C" computing,
"I" idle).  :func:`activity_from_events` rebuilds the activity matrix from
the event log of a run made with ``record_events=True``; the states are the
availability trace the run read (``trace.block(0, n)``).
:func:`render_gantt` draws the two matrices as monospaced text:

* activity letters are shown for UP slots;
* RECLAIMED slots are shown as ``·`` and DOWN slots as ``#`` regardless of
  activity (nothing can happen there);
* slots at which the worker is not enrolled are left blank.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.simulation.events import EventKind, SimulationEvent
from repro.types import DOWN, RECLAIMED

__all__ = ["activity_from_events", "render_gantt"]

_RECLAIMED_CHAR = "·"  # middle dot
_DOWN_CHAR = "#"


def activity_from_events(
    events: Iterable[SimulationEvent], num_workers: int, length: int
) -> np.ndarray:
    """The ``(num_workers, length)`` activity matrix of a run's event log.

    *events* is the engine's :class:`~repro.simulation.events.EventLog` (or
    its events, in slot order) of a run made with ``record_events=True``,
    which visits every slot.  Per slot, the enrolled workers are those of
    the last ``CONFIGURATION_CHANGED`` minus those ``WORKER_FAILED`` since;
    each gets ``P``/``D`` when a ``COMMUNICATION`` event served it, ``C`` on
    a ``COMPUTATION`` slot and ``I`` otherwise, except on an
    ``IDLE(no_feasible_configuration)`` slot, which stays blank.  A slot
    with none of those three events is a communication slot that served
    nobody.  Workers that are not enrolled stay blank.
    """
    activity = np.full((num_workers, length), " ", dtype="<U1")
    pending = iter(events)
    event = next(pending, None)
    enrolled: set = set()
    for slot in range(length):
        served: dict = {}
        letter = "I"
        while event is not None and event.slot == slot:
            kind = event.kind
            if kind is EventKind.WORKER_FAILED:
                enrolled.discard(event.details["worker"])
            elif kind is EventKind.CONFIGURATION_CHANGED:
                enrolled = {int(worker) for worker in event.details["new"]}
            elif kind is EventKind.COMMUNICATION:
                served = event.details["served"]
            elif kind is EventKind.COMPUTATION:
                letter = "C"
            elif (kind is EventKind.IDLE
                  and event.details["reason"] == "no_feasible_configuration"):
                letter = " "
            event = next(pending, None)
        for worker in enrolled:
            transfer = served.get(worker)
            activity[worker, slot] = (
                letter if transfer is None else "P" if transfer == "program" else "D"
            )
    return activity


def render_gantt(
    activity: np.ndarray,
    states: np.ndarray,
    *,
    worker_names: Optional[Sequence[str]] = None,
    start: int = 0,
    end: Optional[int] = None,
    ruler_every: int = 5,
) -> str:
    """Render activity/state matrices as a text Gantt chart.

    Parameters
    ----------
    activity:
        ``(p, N)`` array of single-character activity codes (as produced by
        :func:`activity_from_events`).
    states:
        ``(p, N)`` int array of availability states.
    worker_names:
        Optional row labels; default ``P1..Pp``.
    start, end:
        Slot window to render (``end`` exclusive; defaults to the full width).
    ruler_every:
        Print a tick on the time ruler every that many slots.
    """
    activity = np.asarray(activity)
    states = np.asarray(states)
    if activity.shape != states.shape:
        raise ValueError(
            f"activity and states must have the same shape, got {activity.shape} vs {states.shape}"
        )
    num_workers, horizon = activity.shape
    end = horizon if end is None else min(end, horizon)
    if start < 0 or start > end:
        raise ValueError(f"invalid window [{start}, {end})")
    if worker_names is None:
        worker_names = [f"P{q + 1}" for q in range(num_workers)]
    label_width = max((len(name) for name in worker_names), default=2)

    lines: List[str] = []
    # Time ruler.
    ruler = [" "] * (end - start)
    for offset, slot in enumerate(range(start, end)):
        if slot % ruler_every == 0:
            tick = str(slot)
            for position, char in enumerate(tick):
                if offset + position < len(ruler) and ruler[offset + position] == " ":
                    ruler[offset + position] = char
    lines.append(" " * (label_width + 1) + "".join(ruler))

    for worker in range(num_workers):
        cells: List[str] = []
        for slot in range(start, end):
            state = int(states[worker, slot])
            act = str(activity[worker, slot]) if activity[worker, slot] else " "
            if state == int(DOWN):
                cells.append(_DOWN_CHAR)
            elif state == int(RECLAIMED):
                cells.append(_RECLAIMED_CHAR)
            else:
                cells.append(act if act.strip() else " ")
        lines.append(f"{worker_names[worker]:<{label_width}} " + "".join(cells))

    legend = (
        f"legend: P=program  D=data  C=compute  I=idle  "
        f"{_RECLAIMED_CHAR}=reclaimed  {_DOWN_CHAR}=down  (blank = not enrolled)"
    )
    lines.append(legend)
    return "\n".join(lines)
