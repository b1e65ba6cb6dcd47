"""The :class:`Application` description.

An application is characterised by

* ``tasks_per_iteration`` — ``m``, the number of identical tightly-coupled
  tasks of every iteration;
* ``iterations`` — how many iterations must be completed (the paper's
  experiments fix this to 10 and measure the makespan, which is equivalent to
  maximising the number of iterations before a deadline);
* the message sizes ``Vprog`` (application program, sent once per enrolment)
  and ``Vdata`` (input data of one task, sent for every task of every
  iteration).

Transfer *durations* (``Tprog``, ``Tdata``) live on the
:class:`~repro.platform.platform.Platform` because they depend on the
master-worker bandwidth; the sizes are kept here for the physical-units
constructor and for documentation purposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import InvalidApplicationError

__all__ = ["Application"]


@dataclass(frozen=True)
class Application:
    """Static description of a tightly-coupled iterative application.

    Attributes
    ----------
    tasks_per_iteration:
        ``m`` >= 1 — tasks executed (and synchronised) in every iteration.
    iterations:
        Number of iterations to complete; >= 1.
    program_size:
        ``Vprog`` in bytes (optional, informational).
    data_size:
        ``Vdata`` in bytes (optional, informational).
    name:
        Optional display name.
    """

    tasks_per_iteration: int
    iterations: int = 10
    program_size: Optional[float] = None
    data_size: Optional[float] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if (
            isinstance(self.tasks_per_iteration, bool)
            or int(self.tasks_per_iteration) != self.tasks_per_iteration
            or self.tasks_per_iteration < 1
        ):
            raise InvalidApplicationError(
                f"tasks_per_iteration (m) must be an integer >= 1, got {self.tasks_per_iteration!r}"
            )
        if (
            isinstance(self.iterations, bool)
            or int(self.iterations) != self.iterations
            or self.iterations < 1
        ):
            raise InvalidApplicationError(
                f"iterations must be an integer >= 1, got {self.iterations!r}"
            )
        for attribute in ("program_size", "data_size"):
            value = getattr(self, attribute)
            if value is not None and value < 0:
                raise InvalidApplicationError(f"{attribute} must be >= 0, got {value!r}")
        object.__setattr__(self, "tasks_per_iteration", int(self.tasks_per_iteration))
        object.__setattr__(self, "iterations", int(self.iterations))

    @property
    def m(self) -> int:
        """Alias matching the paper's notation."""
        return self.tasks_per_iteration

    def describe(self) -> str:
        label = self.name or "application"
        return f"{label}(m={self.tasks_per_iteration}, iterations={self.iterations})"
