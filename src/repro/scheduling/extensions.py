"""Extension heuristics beyond the paper's seventeen.

The related-work section of the paper surveys simpler desktop-grid scheduling
policies that rank or filter processors on static criteria (clock rate,
availability threshold) rather than on the probabilistic machinery of
Section V.  Implementing a couple of them gives useful comparison points:

* :class:`FastestWorkersScheduler` ("FAST") — the knowledge-free policy: take
  the fastest UP workers, one task each (spilling over by speed order when
  capacity forces it).  Ignores reliability entirely.
* :class:`ThresholdScheduler` ("THRESHOLD-IE") — the prior-work style policy
  (Kondo et al., Estrada et al.): exclude processors whose long-run
  availability is below a threshold, then run the paper's IE placement on the
  survivors.  Falls back to all UP workers when the filter leaves too few.
* :class:`StickyScheduler` ("STICKY") — an intentionally conservative policy
  that keeps whatever feasible configuration it first finds and only rebuilds
  on failure, picking workers by speed; isolates the value of the Section V
  estimators from the value of merely "not moving around".

These heuristics are *not* part of the paper's evaluation; they register
themselves with the component registry (family ``"extension"``) so
:func:`repro.scheduling.registry.create_scheduler` and the experiment
harness can include them in extension studies.  Each exposes its tuning
knobs through the heuristic expression grammar — ``"FAST(k=8)"``,
``"THRESHOLD-IE(tau=0.7)"``, ``"STICKY(patience=3)"`` — with defaults that
reproduce the unparameterized behaviour bit-for-bit.
"""

from __future__ import annotations

from typing import List, Optional

from repro.application.configuration import Configuration
from repro.scheduling.base import Observation, Scheduler
from repro.scheduling.catalog import FAMILY_EXTENSION, register_heuristic
from repro.scheduling.passive import make_passive_heuristic

__all__ = [
    "FastestWorkersScheduler",
    "ThresholdScheduler",
    "StickyScheduler",
    "EXTENSION_HEURISTICS",
]

#: Names of the extension heuristics understood by the registry.
EXTENSION_HEURISTICS = ("FAST", "THRESHOLD-IE", "STICKY")


def _fill_by_priority(
    scheduler: Scheduler, observation: Observation, ordered_workers: List[int]
) -> Optional[Configuration]:
    """Assign the application's tasks along a worker priority order.

    Workers receive one task each in priority order; remaining tasks wrap
    around respecting the capacity bounds.  Returns ``None`` when the workers
    cannot hold all tasks.
    """
    num_tasks = scheduler.application.tasks_per_iteration
    capacities = {w: scheduler.platform.processor(w).capacity for w in ordered_workers}
    if sum(capacities.values()) < num_tasks or not ordered_workers:
        return None
    allocation = {w: 0 for w in ordered_workers}
    remaining = num_tasks
    while remaining > 0:
        progressed = False
        for worker in ordered_workers:
            if remaining == 0:
                break
            if allocation[worker] < capacities[worker]:
                allocation[worker] += 1
                remaining -= 1
                progressed = True
        if not progressed:  # pragma: no cover - guarded by the capacity check
            return None
    return Configuration(allocation)


@register_heuristic(
    "FAST",
    family=FAMILY_EXTENSION,
    description="fastest UP workers, one task each; ignores reliability entirely",
)
class FastestWorkersScheduler(Scheduler):
    """Enrol the fastest UP workers, one task each, ignoring reliability.

    Parameters
    ----------
    k:
        Size of the preferred worker pool.  ``None`` (the default) enrols
        one worker per task exactly as before; smaller values concentrate
        the tasks on the ``k`` fastest workers, larger values spread the
        spill-over wider before falling back to every UP worker.
    """

    name = "FAST"
    passive_between_rebuilds = True

    def __init__(self, k: Optional[int] = None) -> None:
        super().__init__()
        if k is not None and k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = None if k is None else int(k)

    def select(self, observation: Observation) -> Configuration:
        self._require_bound()
        if not observation.needs_new_configuration():
            return observation.current_configuration
        up_workers = observation.up_workers()
        ordered = sorted(up_workers, key=lambda w: (self.platform.processor(w).speed, w))
        pool = self.k if self.k is not None else self.application.tasks_per_iteration
        # Use as few (fast) workers as possible: one task each on the m fastest,
        # spilling over onto them again if there are fewer than m UP workers.
        configuration = _fill_by_priority(self, observation, ordered[:pool] or ordered)
        if configuration is None:
            configuration = _fill_by_priority(self, observation, ordered)
        return configuration if configuration is not None else Configuration.empty()


@register_heuristic(
    "THRESHOLD-IE",
    family=FAMILY_EXTENSION,
    description="drop processors below a long-run availability threshold, "
    "then apply the paper's IE placement",
    aliases={"tau": "threshold"},
)
class ThresholdScheduler(Scheduler):
    """Filter out low-availability processors, then apply IE placement.

    Parameters
    ----------
    threshold:
        Minimum long-run availability (stationary probability of UP under the
        processor's Markov approximation) required to be considered.  The
        expression grammar also accepts it as ``tau``
        (``"THRESHOLD-IE(tau=0.5)"``).
    """

    passive_between_rebuilds = True

    def __init__(self, threshold: float = 0.5) -> None:
        super().__init__()
        if not (0.0 <= threshold <= 1.0):
            raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
        self.threshold = float(threshold)
        self.name = "THRESHOLD-IE"
        self._inner = make_passive_heuristic("IE")
        self._availability_cache: Optional[List[float]] = None

    def bind(self, platform, application, analysis, rng) -> None:
        super().bind(platform, application, analysis, rng)
        self._inner.bind(platform, application, analysis, rng)
        self._availability_cache = [
            model.availability() for model in platform.markov_models()
        ]

    def select(self, observation: Observation) -> Configuration:
        self._require_bound()
        if not observation.needs_new_configuration():
            return observation.current_configuration
        up_workers = observation.up_workers()
        eligible = [
            worker for worker in up_workers
            if self._availability_cache[worker] >= self.threshold
        ]
        num_tasks = self.application.tasks_per_iteration
        capacity = sum(self.platform.processor(w).capacity for w in eligible)
        if capacity < num_tasks:
            eligible = up_workers  # the filter is too aggressive: fall back
        configuration = self._inner._allocator.allocate(
            eligible,
            has_program=observation.has_program,
            received_data=observation.data_received,
            elapsed=observation.iteration_elapsed,
        )
        return configuration if configuration is not None else Configuration.empty()


@register_heuristic(
    "STICKY",
    family=FAMILY_EXTENSION,
    description="keep the first feasible configuration; rebuild by speed "
    "only on failure, preferring surviving workers while patience lasts",
)
class StickyScheduler(Scheduler):
    """Keep the first feasible configuration found; rebuild only on failure.

    Workers are chosen purely by speed (like :class:`FastestWorkersScheduler`)
    but, unlike the paper's passive heuristics, the choice uses no
    availability information at all — this isolates how much of the paper's
    improvement comes from the probabilistic estimators rather than from mere
    configuration stability.

    Parameters
    ----------
    patience:
        Number of consecutive forced rebuilds during which the scheduler
        repairs incrementally — surviving workers of the previous
        configuration keep priority over faster newcomers — before the next
        rebuild re-sorts every UP worker from scratch.  ``0`` (the default)
        always rebuilds from scratch, which is the original behaviour.
    """

    name = "STICKY"
    passive_between_rebuilds = True

    def __init__(self, patience: int = 0) -> None:
        super().__init__()
        if patience < 0:
            raise ValueError(f"patience must be >= 0, got {patience}")
        self.patience = int(patience)
        self._previous_workers: List[int] = []
        self._repairs = 0

    def reset(self) -> None:
        self._previous_workers = []
        self._repairs = 0

    def select(self, observation: Observation) -> Configuration:
        self._require_bound()
        if not observation.needs_new_configuration():
            return observation.current_configuration
        ordered = sorted(
            observation.up_workers(), key=lambda w: (self.platform.processor(w).speed, w)
        )
        if self.patience > 0:
            up_set = set(ordered)
            survivors = [w for w in self._previous_workers if w in up_set]
            if survivors and self._repairs < self.patience:
                self._repairs += 1
                survivor_set = set(survivors)
                ordered = survivors + [w for w in ordered if w not in survivor_set]
            else:
                self._repairs = 0
        configuration = _fill_by_priority(self, observation, ordered)
        if configuration is None:
            return Configuration.empty()
        if self.patience > 0:
            self._previous_workers = [w for w in ordered if w in configuration]
        return configuration
