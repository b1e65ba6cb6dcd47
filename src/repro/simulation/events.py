"""Structured event log of a simulation run.

Event recording is optional (``record_events=True`` on the engine): it is
useful for debugging, for the worked-example walkthrough, and for rendering
Figure-1 style Gantt charts, but it is disabled in the experiment campaigns
to keep memory usage flat.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["EventKind", "SimulationEvent", "EventLog"]


class EventKind(enum.Enum):
    """Kinds of events recorded by the engine."""

    CONFIGURATION_CHANGED = "configuration_changed"
    WORKER_FAILED = "worker_failed"
    ITERATION_RESTARTED = "iteration_restarted"
    ITERATION_COMPLETED = "iteration_completed"
    COMMUNICATION = "communication"
    COMPUTATION = "computation"
    IDLE = "idle"
    RUN_COMPLETED = "run_completed"
    RUN_ABORTED = "run_aborted"


@dataclass(frozen=True)
class SimulationEvent:
    """One recorded event: slot, kind and free-form details."""

    slot: int
    kind: EventKind
    details: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Event(t={self.slot}, {self.kind.value}, {self.details})"


class EventLog:
    """Append-only list of events with small query helpers."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[SimulationEvent] = []

    def record(self, slot: int, kind: EventKind, **details: Any) -> None:
        if not self.enabled:
            return
        self._events.append(SimulationEvent(slot=slot, kind=kind, details=details))

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[SimulationEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)
