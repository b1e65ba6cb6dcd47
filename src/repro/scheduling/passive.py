"""Passive incremental heuristics IP, IE, IY and IAY (Section VI-A).

Passive heuristics conservatively keep the enrolled workers as long as
possible: the configuration is rebuilt only when a worker fails, when a new
iteration starts, or when the carried-over configuration is empty.  The
rebuild assigns the ``m`` tasks one by one, each time to the UP worker that
optimises the heuristic's criterion:

* **IP** — maximise the probability of success of the (partial)
  configuration;
* **IE** — minimise its expected completion time;
* **IY** — maximise its expected yield ``P / (t + E)``;
* **IAY** — maximise its apparent yield ``P / E``.

Workers that survived a failure and stay enrolled can reuse the task data
they already received (the engine applies the corresponding retention rule),
so the rebuild is evaluated with the observation's ``data_received``.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.criteria import Criterion, get_criterion
from repro.application.configuration import Configuration
from repro.scheduling.allocation import IncrementalAllocator
from repro.scheduling.base import Observation, Scheduler

__all__ = ["PassiveHeuristic", "make_passive_heuristic", "PASSIVE_CRITERION_BY_NAME"]

#: Mapping passive-heuristic name -> selection criterion short name.
PASSIVE_CRITERION_BY_NAME = {
    "IP": "P",
    "IE": "E",
    "IY": "Y",
    "IAY": "AY",
}


class PassiveHeuristic(Scheduler):
    """A passive heuristic defined by its incremental selection criterion.

    Rebuilds go through an
    :class:`~repro.scheduling.allocation.IncrementalAllocator`, whose
    greedy-path tree and answer table live in the analysis context and are
    shared by every heuristic of the scenario bound to it.
    """

    passive_between_rebuilds = True

    def __init__(self, criterion: Criterion, name: Optional[str] = None) -> None:
        super().__init__()
        self.criterion = criterion
        self.name = name or f"I{criterion.name}"
        self._allocator: Optional[IncrementalAllocator] = None

    # ------------------------------------------------------------------
    def bind(self, platform, application, analysis, rng) -> None:
        super().bind(platform, application, analysis, rng)
        self._allocator = IncrementalAllocator(
            self.criterion,
            analysis,
            platform,
            application.tasks_per_iteration,
        )

    # ------------------------------------------------------------------
    def select(self, observation: Observation) -> Configuration:
        self._require_bound()
        if not observation.needs_new_configuration():
            return observation.current_configuration
        configuration = self.build_configuration(observation)
        if configuration is None:
            return Configuration.empty()
        return configuration

    # ------------------------------------------------------------------
    def build_configuration(self, observation: Observation) -> Optional[Configuration]:
        """Build a fresh configuration for this slot (or ``None`` if infeasible).

        Exposed separately so the proactive wrapper can reuse the exact same
        incremental machinery when computing its per-slot candidate.
        """
        if self._allocator is None:
            raise RuntimeError("scheduler is not bound")
        return self._allocator.allocate(
            observation.up_workers(),
            has_program=observation.has_program,
            received_data=observation.data_received,
            elapsed=observation.iteration_elapsed,
        )

    def build_candidate(self, observation: Observation) -> Optional[Configuration]:
        """Candidate configuration for the proactive wrapper.

        Per Section VI-B the candidate is computed "from scratch ... as if no
        task were allocated to any worker": program possession is persistent
        worker state and is taken into account, but previously received task
        data is not.
        """
        if self._allocator is None:
            raise RuntimeError("scheduler is not bound")
        return self._allocator.allocate(
            observation.up_workers(),
            has_program=observation.has_program,
            received_data=None,
            elapsed=observation.iteration_elapsed,
        )


def make_passive_heuristic(name: str) -> PassiveHeuristic:
    """Instantiate one of IP / IE / IY / IAY by name (case-insensitive)."""
    key = str(name).strip().upper()
    try:
        criterion_name = PASSIVE_CRITERION_BY_NAME[key]
    except KeyError:
        raise ValueError(
            f"unknown passive heuristic {name!r}; expected one of "
            f"{sorted(PASSIVE_CRITERION_BY_NAME)}"
        ) from None
    return PassiveHeuristic(get_criterion(criterion_name), name=key)
