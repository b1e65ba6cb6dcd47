"""Worker configurations: which workers are enrolled and with how many tasks.

A *configuration* (``config(t)`` in the paper) maps a subset of workers to
positive task counts ``x_q`` with ``Σ x_q = m`` and ``x_q <= µ_q``.  The
iteration's computation phase then requires ``W = max_q x_q · w_q`` time
slots during which **all** enrolled workers are simultaneously UP (tasks are
tightly coupled, so everything advances at the pace of the slowest worker).

Configurations are immutable value objects: schedulers build new ones rather
than mutating, so they can be hashed, compared and used as cache keys by the
analysis layer.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.exceptions import InvalidConfigurationError
from repro.platform.platform import Platform
from repro.types import WorkerId

__all__ = ["Configuration"]


class Configuration:
    """Immutable mapping ``worker id -> number of tasks x_q`` (all counts >= 1)."""

    __slots__ = ("_allocation", "_hash")

    def __init__(self, allocation: Mapping[WorkerId, int]):
        cleaned: Dict[int, int] = {}
        for worker, tasks in allocation.items():
            if isinstance(tasks, bool) or int(tasks) != tasks:
                raise InvalidConfigurationError(
                    f"task count for worker {worker} must be an integer, got {tasks!r}"
                )
            tasks = int(tasks)
            if tasks < 0:
                raise InvalidConfigurationError(
                    f"task count for worker {worker} must be >= 0, got {tasks}"
                )
            if tasks == 0:
                continue  # zero-task entries are simply dropped
            worker = int(worker)
            if worker < 0:
                raise InvalidConfigurationError(f"worker id must be >= 0, got {worker}")
            cleaned[worker] = tasks
        self._allocation: Dict[int, int] = dict(sorted(cleaned.items()))
        self._hash = hash(tuple(self._allocation.items()))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "Configuration":
        """The empty configuration (no worker enrolled)."""
        return cls({})

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def workers(self) -> Tuple[int, ...]:
        """Enrolled worker ids, ascending."""
        return tuple(self._allocation.keys())

    @property
    def allocation(self) -> Dict[int, int]:
        """Copy of the worker -> task-count mapping."""
        return dict(self._allocation)

    def tasks_on(self, worker: WorkerId) -> int:
        """``x_q`` for *worker* (0 if not enrolled)."""
        return self._allocation.get(int(worker), 0)

    def total_tasks(self) -> int:
        """``Σ x_q``."""
        return sum(self._allocation.values())

    def is_empty(self) -> bool:
        return not self._allocation

    def __contains__(self, worker: object) -> bool:
        return int(worker) in self._allocation  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[int]:
        return iter(self._allocation)

    def items(self):
        return self._allocation.items()

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def workload(self, platform: Platform) -> int:
        """``W = max_q x_q · w_q`` — UP slots of simultaneous computation needed."""
        if not self._allocation:
            return 0
        return max(
            tasks * platform.processor(worker).speed
            for worker, tasks in self._allocation.items()
        )

    def communication_slots(
        self,
        platform: Platform,
        *,
        has_program: Optional[Iterable[WorkerId]] = None,
        received_data: Optional[Mapping[WorkerId, int]] = None,
    ) -> Dict[int, int]:
        """Per-worker slots of master communication still needed (``n_q``).

        Parameters
        ----------
        platform:
            Supplies ``Tprog`` and ``Tdata``.
        has_program:
            Workers that already hold the program (and have not been DOWN
            since receiving it) — they do not need it re-sent.
        received_data:
            Data messages already received (and still usable) this iteration,
            per worker; capped at the assigned task count.
        """
        program_owners = set(int(w) for w in has_program) if has_program else set()
        received = {int(k): int(v) for k, v in received_data.items()} if received_data else {}
        slots: Dict[int, int] = {}
        for worker, tasks in self._allocation.items():
            already = min(received.get(worker, 0), tasks)
            needs_program = worker not in program_owners
            slots[worker] = platform.communication_slots(
                tasks - already, needs_program=needs_program
            )
        return slots

    # ------------------------------------------------------------------
    # Value-object protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if other is self:
            return True  # the engine compares a kept configuration every slot
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._allocation == other._allocation

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"P{worker}:{tasks}" for worker, tasks in self._allocation.items())
        return f"Configuration({{{inner}}})"

    def to_dict(self) -> dict:
        return {str(worker): tasks for worker, tasks in self._allocation.items()}
