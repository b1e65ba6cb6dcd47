"""The :class:`Platform`: a set of processors plus the master's network model.

The master is always UP (the paper assumes a primary-backup pair of dedicated
servers).  Its communication capability follows the bounded multi-port model:
with aggregate bandwidth ``BW`` and per-worker bandwidth ``bw``, at most
``ncom = floor(BW / bw)`` transfers (program or task data, each consuming one
full ``bw`` link) can be in flight during any time-slot.

Transfer durations are expressed directly in time-slots:

* ``Tprog = Vprog / bw`` slots to send the application program,
* ``Tdata = Vdata / bw`` slots to send the input data of one task.

The :class:`Platform` takes the derived quantities (``ncom``, ``tprog``,
``tdata``) directly, which is how the paper's experiments are parameterised.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.availability.markov import MarkovAvailabilityModel
from repro.exceptions import InvalidPlatformError
from repro.platform.processor import Processor

__all__ = ["Platform"]


class Platform:
    """A desktop-grid platform: processors + master communication constraints.

    Parameters
    ----------
    processors:
        The processor descriptions (order defines worker ids ``0..p-1``).
    ncom:
        Maximum number of simultaneous master transfers
        (``ncom = floor(BW / bw)``).  Must be >= 1.
    tprog:
        ``Tprog`` — whole time-slots needed to transfer the application
        program to one worker.  May be 0 (program pre-deployed).
    tdata:
        ``Tdata`` — whole time-slots needed to transfer one task's input data
        to one worker.  May be 0 (compute-only application).
    hazard:
        Optional platform-level
        :class:`~repro.hazards.GroupHazardProcess` (correlated outages,
        pool churn).  When present, the simulation layer overlays it on
        every availability window it materialises from the per-processor
        models; replay traces already carry the overlay baked in.
    """

    def __init__(
        self,
        processors: Sequence[Processor],
        *,
        ncom: int,
        tprog: int,
        tdata: int,
        hazard=None,
    ) -> None:
        processors = list(processors)
        if not processors:
            raise InvalidPlatformError("a platform needs at least one processor")
        if int(ncom) != ncom or ncom < 1:
            raise InvalidPlatformError(f"ncom must be an integer >= 1, got {ncom!r}")
        if int(tprog) != tprog or tprog < 0:
            raise InvalidPlatformError(f"tprog must be an integer >= 0, got {tprog!r}")
        if int(tdata) != tdata or tdata < 0:
            raise InvalidPlatformError(f"tdata must be an integer >= 0, got {tdata!r}")
        self._processors: List[Processor] = [
            proc if proc.name else proc.with_name(f"P{index + 1}")
            for index, proc in enumerate(processors)
        ]
        self._ncom = int(ncom)
        self._tprog = int(tprog)
        self._tdata = int(tdata)
        if hazard is not None and not (
            hasattr(hazard, "reset") and hasattr(hazard, "overlay")
        ):
            raise InvalidPlatformError(
                f"hazard must provide reset()/overlay(), got {type(hazard).__name__}"
            )
        self._hazard = hazard

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def processors(self) -> List[Processor]:
        return list(self._processors)

    @property
    def num_processors(self) -> int:
        return len(self._processors)

    @property
    def ncom(self) -> int:
        """Maximum number of simultaneous master transfers."""
        return self._ncom

    @property
    def tprog(self) -> int:
        """Slots needed to send the application program to one worker."""
        return self._tprog

    @property
    def tdata(self) -> int:
        """Slots needed to send one task's input data to one worker."""
        return self._tdata

    @property
    def hazard(self):
        """Platform-level hazard overlay (``None`` on hazard-free platforms)."""
        return self._hazard

    def processor(self, worker: int) -> Processor:
        return self._processors[worker]

    def __len__(self) -> int:
        return len(self._processors)

    def __iter__(self):
        return iter(self._processors)

    def capacities(self) -> np.ndarray:
        """Vector of per-processor capacities ``µ_q``."""
        return np.array([proc.capacity for proc in self._processors], dtype=np.int64)

    def total_capacity(self) -> int:
        """``Σ µ_q`` — must be >= m for the application to be executable."""
        return int(self.capacities().sum())

    def markov_models(self) -> List[MarkovAvailabilityModel]:
        """Per-processor Markov views used by the analytical machinery.

        For processors whose availability already is a
        :class:`MarkovAvailabilityModel` the model itself is returned;
        otherwise a Markov model is built from
        :meth:`AvailabilityModel.markov_approximation` (the "flawed model"
        path of the robustness extension).
        """
        models: List[MarkovAvailabilityModel] = []
        for proc in self._processors:
            if isinstance(proc.availability, MarkovAvailabilityModel):
                models.append(proc.availability)
            else:
                models.append(MarkovAvailabilityModel(proc.availability.markov_approximation()))
        return models

    # ------------------------------------------------------------------
    # Feasibility helpers
    # ------------------------------------------------------------------
    def can_execute(self, num_tasks: int) -> bool:
        """Whether ``Σ µ_q >= m`` (necessary feasibility condition, Sec. III-C)."""
        return self.total_capacity() >= num_tasks

    def validate_for_tasks(self, num_tasks: int) -> None:
        """Raise :class:`InvalidPlatformError` if the platform cannot host *num_tasks*."""
        if not self.can_execute(num_tasks):
            raise InvalidPlatformError(
                f"platform total capacity {self.total_capacity()} is smaller than "
                f"the number of tasks per iteration ({num_tasks})"
            )

    def communication_slots(self, tasks: int, *, needs_program: bool) -> int:
        """Slots of master communication one worker needs for *tasks* tasks.

        ``n_q = [Tprog if the program must be (re)sent] + tasks * Tdata``.
        """
        if tasks < 0:
            raise ValueError(f"tasks must be >= 0, got {tasks}")
        return (self._tprog if needs_program else 0) + tasks * self._tdata

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def describe(self) -> str:
        base = (
            f"Platform(p={self.num_processors}, ncom={self._ncom}, "
            f"Tprog={self._tprog}, Tdata={self._tdata}"
        )
        if self._hazard is not None:
            hazard = getattr(self._hazard, "describe", lambda: type(self._hazard).__name__)()
            return f"{base}, hazard={hazard})"
        return base + ")"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.describe()}>"
