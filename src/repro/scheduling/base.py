"""Scheduler interface and the per-slot observation it receives.

The simulation engine is scheduler-agnostic: at every slot it hands the
scheduler an :class:`Observation` (the processor states of the slot plus the
relevant runtime information) and expects a
:class:`~repro.application.configuration.Configuration` back.  Returning the
current configuration unchanged means "keep going"; returning a different one
triggers a reconfiguration (with the data-retention rules of Section III-C
applied by the engine); returning an empty configuration means "wait this
slot out" (e.g. not enough UP workers to place all ``m`` tasks).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from repro.analysis.cache import AnalysisContext
from repro.application.application import Application
from repro.application.configuration import Configuration
from repro.platform.platform import Platform
from repro.types import UP

__all__ = ["Observation", "Scheduler"]

_UP_CODE = int(UP)


@dataclass(frozen=True)
class Observation:
    """Everything a scheduler may look at when choosing ``config(t)``.

    Only *on-line* information is exposed: current states, past-derived
    runtime bookkeeping, but never future availability.
    """

    #: Current time-slot ``t``.
    slot: int
    #: Per-worker availability states at slot ``t`` (int codes, see ProcessorState).
    states: np.ndarray
    #: The configuration carried over from the previous slot, with DOWN
    #: workers already removed by the engine.
    current_configuration: Configuration
    #: Index of the iteration currently being executed (0-based).
    iteration_index: int
    #: Slots elapsed since the start of the current iteration (the ``t`` of the yield).
    iteration_elapsed: int
    #: Completed slots of simultaneous computation in the current iteration.
    progress: int
    #: Whether an enrolled worker went DOWN at this slot (iteration was restarted).
    failure: bool
    #: Whether this slot is the first of a new iteration.
    new_iteration: bool
    #: Workers currently holding the application program.
    has_program: FrozenSet[int]
    #: Usable data messages already received, per enrolled worker.
    data_received: Dict[int, int] = field(default_factory=dict)
    #: Remaining communication slots per enrolled worker.
    comm_remaining: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def up_workers(self) -> List[int]:
        """Ids of the workers that are UP at this slot."""
        # ``tolist`` yields Python ints: no NumPy scalar is built per worker.
        return [w for w, s in enumerate(self.states.tolist()) if s == _UP_CODE]

    def is_up(self, worker: int) -> bool:
        return int(self.states[worker]) == int(UP)

    def needs_new_configuration(self) -> bool:
        """Whether a passive scheduler must (re)build the configuration now.

        True at the start of an iteration, after a failure, or whenever the
        carried-over configuration is empty (e.g. the previous slots had too
        few UP workers to place all tasks).
        """
        return self.new_iteration or self.failure or self.current_configuration.is_empty()


class _EngineObservation(Observation):
    """The :class:`Observation` the simulation engine hands to ``select``.

    Equal to the public class in every attribute, value and type, but built
    by :meth:`build` without the dataclass ``__init__``, out of state the
    engine keeps between slots: the holder set and the UP list are shared
    until an event changes them.  ``states``, ``data_received`` and
    ``comm_remaining`` are computed on first read from the slot's column and
    the enrolled runtimes.  The engine advances those runtimes only after
    ``select`` returns, so a scheduler that keeps an observation and reads
    them later must read them inside ``select``.
    """

    @classmethod
    def build(
        cls,
        slot: int,
        column: np.ndarray,
        current_configuration: Configuration,
        iteration_index: int,
        iteration_elapsed: int,
        progress: int,
        failure: bool,
        new_iteration: bool,
        has_program: FrozenSet[int],
        up: List[int],
        enrolled: list,
        tprog: int,
        tdata: int,
    ) -> "_EngineObservation":
        """The observation of *slot*, built without the dataclass ``__init__``.

        *column* is the engine's state column of the slot (copied on the
        first read of ``states``), *up* its UP workers and *enrolled* the
        runtimes of the current configuration's workers, ascending.
        """
        observation = object.__new__(cls)
        observation.__dict__.update(
            slot=slot,
            current_configuration=current_configuration,
            iteration_index=iteration_index,
            iteration_elapsed=iteration_elapsed,
            progress=progress,
            failure=failure,
            new_iteration=new_iteration,
            has_program=has_program,
            _column=column,
            _up=up,
            _enrolled=enrolled,
            _tprog=tprog,
            _tdata=tdata,
        )
        return observation

    def __getattr__(self, name: str):
        # Called only for attributes not yet in the instance dict.
        compute = _LAZY_FIELDS.get(name)
        if compute is None:
            raise AttributeError(name)
        value = self.__dict__[name] = compute(self)
        return value

    def up_workers(self) -> List[int]:
        return list(self._up)


#: The lazily computed attributes of an engine observation.  ``_up`` is only
#: missing on a copy made through the dataclass ``__init__`` (``replace``).
_LAZY_FIELDS = {
    "states": lambda o: o._column.copy(),
    "data_received": lambda o: {r.worker_id: r.data_received for r in o._enrolled},
    "comm_remaining": lambda o: {
        r.worker_id: r.comm_slots_remaining(o._tprog, o._tdata) for r in o._enrolled
    },
    "_up": lambda o: Observation.up_workers(o),
}


class Scheduler(abc.ABC):
    """Abstract on-line scheduler.

    Life-cycle: the engine calls :meth:`bind` once per run (providing the
    platform, the application, a shared :class:`AnalysisContext` and a
    dedicated random generator), then :meth:`select` once per slot.
    """

    #: Human-readable identifier (e.g. ``"IE"``, ``"Y-IE"``, ``"RANDOM"``).
    name: str = "scheduler"

    #: Declarative contract: a scheduler sets this to True to promise that
    #: :meth:`select` returns ``observation.current_configuration`` unchanged
    #: (and draws nothing from its generator) on every slot where
    #: ``observation.needs_new_configuration()`` is false.  The simulation
    #: engine exploits the promise to skip the observation round-trip and to
    #: fast-forward through uneventful computation slots; the results are
    #: bit-identical either way.  Schedulers that may reconfigure
    #: spontaneously (e.g. the proactive heuristics) must leave it False.
    passive_between_rebuilds: bool = False

    def __init__(self) -> None:
        self.platform: Optional[Platform] = None
        self.application: Optional[Application] = None
        self.analysis: Optional[AnalysisContext] = None
        self.rng: Optional[np.random.Generator] = None

    # ------------------------------------------------------------------
    def bind(
        self,
        platform: Platform,
        application: Application,
        analysis: AnalysisContext,
        rng: np.random.Generator,
    ) -> None:
        """Attach the scheduler to a run.  Subclasses extending this must call super()."""
        self.platform = platform
        self.application = application
        self.analysis = analysis
        self.rng = rng
        self.reset()

    def reset(self) -> None:
        """Clear per-run internal state (called by :meth:`bind`)."""

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def select(self, observation: Observation) -> Configuration:
        """Return ``config(t)`` for the slot described by *observation*."""

    # ------------------------------------------------------------------
    def _require_bound(self) -> None:
        if self.platform is None or self.application is None:
            raise RuntimeError(
                f"scheduler {self.name!r} must be bound to a platform/application before use"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
