"""Platform-level hazard processes: correlated outages and pool churn.

The availability layer's original contract is strictly per-worker: each
:class:`~repro.availability.model.AvailabilityModel` owns one worker's state
chain and consumes one private RNG stream.  Real desktop grids violate that
independence in two important ways:

* **Correlated outages** — a shared rack, switch, or power domain fails and
  takes a *group* of workers down simultaneously.
* **Pool churn** — hosts enrol in and retire from the pool mid-application,
  so the set of live workers is non-stationary.

Both are modelled here as :class:`GroupHazardProcess` overlays.  A hazard
process does not replace the per-worker models; it *post-processes* each
materialised availability window, forcing ``DOWN`` onto the rows of affected
workers for the duration of each event.  The one sampler of
availability realisations, :class:`~repro.simulation.blocks.SampledTrace`,
which solo engines, the multi-heuristic driver and the campaign runner all
read, applies the overlay exactly once per sampled window, immediately
after sampling it, so every path sees the same realisation bit-for-bit.

Determinism contract
--------------------
``reset(rng)`` consumes exactly one integer from the run's dedicated hazard
master stream (:func:`~repro.utils.rng.hazard_stream`, which
:class:`~repro.simulation.blocks.SampledTrace` derives from the run seed on
a platform with a hazard) and spawns
one child generator per hazard *unit* (domain, or worker for churn).  Each
unit then run-fills its own alternating-renewal timeline from its private
stream, so the realisation is

* independent of the worker and scheduler streams (adding a hazard never
  perturbs the base chains), and
* independent of how the horizon is split into windows (``overlay`` over one
  4096-slot window equals ``overlay`` over the same span in any sequence of
  smaller chunks) — pinned by ``tests/hazards/test_processes.py``.

``overlay`` must be called with strictly sequential, gap-free windows
starting at slot 0; out-of-order calls raise
:class:`~repro.exceptions.SimulationError`.
"""

from __future__ import annotations

import abc
from typing import List, Optional

import numpy as np

from repro.exceptions import InvalidModelError, SimulationError
from repro.types import DOWN
from repro.utils.rng import spawn_generators

__all__ = ["GroupHazardProcess", "DomainOutageProcess", "ChurnProcess"]

_DOWN_CODE = np.int8(int(DOWN))


class GroupHazardProcess(abc.ABC):
    """Alternating-renewal overlay shared by a group of workers.

    Subclasses model *units* (outage domains, individual churning hosts)
    that alternate between a healthy phase and an outage phase.  During an
    outage phase every member worker of the unit is forced ``DOWN``
    regardless of what its private availability chain sampled.

    Subclasses provide the structure (:attr:`num_units`, :meth:`members`)
    and the law (:meth:`_initial_outage`, :meth:`_sojourn`); this base class
    owns the run-fill machinery and the determinism bookkeeping.

    Example:
        >>> from repro import ChurnProcess, GroupHazardProcess
        >>> process = ChurnProcess(4)   # one unit per churning worker
        >>> isinstance(process, GroupHazardProcess), process.num_units
        (True, 4)
    """

    def __init__(self, num_workers: int, num_units: int) -> None:
        if num_workers < 1:
            raise InvalidModelError(f"num_workers must be >= 1, got {num_workers}")
        if num_units < 1:
            raise InvalidModelError(f"num_units must be >= 1, got {num_units}")
        self.num_workers = int(num_workers)
        self.num_units = int(num_units)
        self._unit_rngs: Optional[List[np.random.Generator]] = None
        self._outage: List[bool] = []
        self._remaining: List[int] = []
        self._cursor = 0

    # -- structure and law (subclass responsibility) -------------------
    @abc.abstractmethod
    def members(self, unit: int) -> np.ndarray:
        """Worker ids belonging to *unit* (1-D integer array)."""

    @abc.abstractmethod
    def _initial_outage(self, rng: np.random.Generator) -> bool:
        """Whether *unit* starts (slot 0) inside an outage phase."""

    @abc.abstractmethod
    def _sojourn(self, outage: bool, rng: np.random.Generator) -> int:
        """Draw the length (>= 1 slots) of a phase that just started."""

    @abc.abstractmethod
    def describe(self) -> str:
        """One-line human-readable summary of the process."""

    # -- lifecycle -----------------------------------------------------
    def reset(self, rng: np.random.Generator) -> None:
        """Re-seed the process for a new run from the hazard master stream.

        Consumes exactly one integer from *rng* and spawns one private
        child generator per unit; each unit then draws its initial phase
        and that phase's sojourn from its own stream.
        """
        self._unit_rngs = spawn_generators(int(rng.integers(0, 2**62)), self.num_units)
        self._outage = []
        self._remaining = []
        for unit_rng in self._unit_rngs:
            outage = bool(self._initial_outage(unit_rng))
            self._outage.append(outage)
            self._remaining.append(int(self._sojourn(outage, unit_rng)))
        self._cursor = 0

    def overlay(self, start: int, block: np.ndarray) -> None:
        """Force ``DOWN`` onto member rows of *block* during outage phases.

        *block* is the ``(num_workers, length)`` ``int8`` window covering
        slots ``[start, start + length)``; it is mutated in place.  Windows
        must be consumed sequentially from slot 0 (call :meth:`reset`
        first).
        """
        if self._unit_rngs is None:
            raise SimulationError("GroupHazardProcess.overlay before reset()")
        if start != self._cursor:
            raise SimulationError(
                f"hazard overlay must consume sequential windows: expected "
                f"start {self._cursor}, got {start}"
            )
        if block.ndim != 2 or block.shape[0] != self.num_workers:
            raise SimulationError(
                f"hazard overlay got a block of shape {block.shape}, expected "
                f"({self.num_workers}, length)"
            )
        length = block.shape[1]
        for unit in range(self.num_units):
            mask = self._unit_mask(unit, length)
            if mask.any():
                rows = self.members(unit)
                block[np.ix_(rows, np.flatnonzero(mask))] = _DOWN_CODE
        self._cursor += length

    # -- run fill ------------------------------------------------------
    def _unit_mask(self, unit: int, length: int) -> np.ndarray:
        """Advance *unit* by *length* slots; return its outage mask."""
        rng = self._unit_rngs[unit]
        mask = np.zeros(length, dtype=bool)
        outage = self._outage[unit]
        remaining = self._remaining[unit]
        position = 0
        while position < length:
            if remaining <= 0:
                outage = not outage
                remaining = int(self._sojourn(outage, rng))
            take = min(remaining, length - position)
            if outage:
                mask[position : position + take] = True
            remaining -= take
            position += take
        self._outage[unit] = outage
        self._remaining[unit] = remaining
        return mask

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class DomainOutageProcess(GroupHazardProcess):
    """Per-domain correlated outage events over a worker group map.

    Workers are partitioned round-robin into *domains* shared failure
    domains (worker ``w`` belongs to domain ``w % domains``), modelling
    racks or power domains.  Each domain independently alternates between a
    healthy phase of geometric mean ``1/rate`` slots and an outage phase of
    geometric mean ``mean_outage`` slots; during an outage every member is
    simultaneously ``DOWN``.

    Parameters
    ----------
    num_workers:
        Size of the worker pool the process overlays.
    domains:
        Number of shared failure domains (clipped to ``num_workers``).
    rate:
        Per-slot probability that a healthy domain starts an outage
        (``0 < rate <= 1``); inter-event gaps are geometric with mean
        ``1/rate`` slots.
    mean_outage:
        Mean outage duration in slots (``>= 1``); durations are geometric.

    Example:
        >>> from repro import DomainOutageProcess
        >>> process = DomainOutageProcess(8, domains=4, rate=0.002)
        >>> [int(w) for w in process.members(0)]   # workers in domain 0
        [0, 4]

        Campaigns and :func:`repro.api.run` build it from the expression
        grammar:

        >>> from repro import api
        >>> result = api.run("IE", m=4, ncom=5, wmin=1, seed=1,
        ...                  availability="correlated(domains=4, rate=0.002)")
        >>> result.success
        True
    """

    def __init__(
        self,
        num_workers: int,
        *,
        domains: int = 4,
        rate: float = 0.002,
        mean_outage: float = 8.0,
    ) -> None:
        domains = int(domains)
        if domains < 1:
            raise InvalidModelError(f"domains must be >= 1, got {domains}")
        if not 0.0 < rate <= 1.0:
            raise InvalidModelError(f"rate must be in (0, 1], got {rate}")
        if mean_outage < 1.0:
            raise InvalidModelError(f"mean_outage must be >= 1, got {mean_outage}")
        super().__init__(num_workers, min(domains, num_workers))
        self.domains = self.num_units
        self.rate = float(rate)
        self.mean_outage = float(mean_outage)
        self._members = [
            np.arange(unit, num_workers, self.domains) for unit in range(self.domains)
        ]

    def members(self, unit: int) -> np.ndarray:
        """Worker indices of failure domain *unit* (round-robin partition)."""
        return self._members[unit]

    def _initial_outage(self, rng: np.random.Generator) -> bool:
        # Platforms start healthy: slot 0 is the moment the application is
        # launched, which an operator would not do mid-outage.
        return False

    def _sojourn(self, outage: bool, rng: np.random.Generator) -> int:
        if outage:
            return int(rng.geometric(min(1.0, 1.0 / self.mean_outage)))
        return int(rng.geometric(self.rate))

    def describe(self) -> str:
        """Human-readable parameter summary (``repro models`` listing)."""
        return (
            f"correlated outages: {self.domains} domains over "
            f"{self.num_workers} workers, rate={self.rate:g}/slot, "
            f"mean outage {self.mean_outage:g} slots"
        )


class ChurnProcess(GroupHazardProcess):
    """Birth–death pool churn: workers enter and leave mid-application.

    Every worker is its own unit, alternating between an *enrolled* phase
    (geometric mean ``mean_present`` slots) and an *absent* phase (geometric
    mean ``mean_absent`` slots).  An absent worker is rendered ``DOWN``:
    leaving the pool destroys the application program and any staged data,
    exactly like a crash, and schedulers already treat ``DOWN`` workers as
    unusable — so the changing active column set is surfaced to them through
    the state blocks with no scheduler-side API change.

    Parameters
    ----------
    num_workers:
        Size of the (maximal) worker pool.
    mean_present:
        Mean enrolled sojourn in slots (``>= 1``).
    mean_absent:
        Mean absent sojourn in slots (``>= 1``).
    present0:
        Probability that a worker is enrolled at slot 0 (``0 < present0 <=
        1``); the rest of the pool trickles in later (birth side of the
        birth–death overlay).

    Example:
        >>> from repro import ChurnProcess
        >>> process = ChurnProcess(4, mean_present=400, mean_absent=150)
        >>> process.num_units          # every worker churns independently
        4
        >>> from repro import api
        >>> api.run("IE", m=4, ncom=5, wmin=1, seed=1,
        ...         availability="churn(mean_present=400, mean_absent=150)").success
        True
    """

    def __init__(
        self,
        num_workers: int,
        *,
        mean_present: float = 400.0,
        mean_absent: float = 150.0,
        present0: float = 0.8,
    ) -> None:
        if mean_present < 1.0:
            raise InvalidModelError(f"mean_present must be >= 1, got {mean_present}")
        if mean_absent < 1.0:
            raise InvalidModelError(f"mean_absent must be >= 1, got {mean_absent}")
        if not 0.0 < present0 <= 1.0:
            raise InvalidModelError(f"present0 must be in (0, 1], got {present0}")
        super().__init__(num_workers, num_workers)
        self.mean_present = float(mean_present)
        self.mean_absent = float(mean_absent)
        self.present0 = float(present0)
        self._members = [np.array([unit]) for unit in range(num_workers)]

    def members(self, unit: int) -> np.ndarray:
        """The singleton worker behind churn unit *unit*."""
        return self._members[unit]

    def _initial_outage(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() >= self.present0)

    def _sojourn(self, outage: bool, rng: np.random.Generator) -> int:
        if outage:
            return int(rng.geometric(min(1.0, 1.0 / self.mean_absent)))
        return int(rng.geometric(min(1.0, 1.0 / self.mean_present)))

    def describe(self) -> str:
        """Human-readable parameter summary (``repro models`` listing)."""
        return (
            f"pool churn over {self.num_workers} workers: enrolled "
            f"~{self.mean_present:g} slots, absent ~{self.mean_absent:g} "
            f"slots, P(enrolled at 0)={self.present0:g}"
        )
