"""Turning a candidate configuration into probability / time / yield estimates.

This is the glue between the raw Theorem 5.1 quantities and the heuristics of
Section VI: given a configuration (which workers, how many tasks each), the
communication still needed per worker and the computation still to be done,
produce the estimated

* probability of success of the iteration
  (``P = P_comm × P_comp``),
* expected completion time (``E = E_comm + E_comp``),
* yield (``P / (t + E)``) and apparent yield (``P / E``),

each through the float expressions of :mod:`repro.analysis.criteria`.

These estimates are what the incremental heuristics maximise/minimise when
assigning tasks, and what the proactive heuristics compare when deciding
whether to abandon the current configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from repro.analysis import criteria
from repro.analysis.communication import CommunicationEstimate, estimate_communication
from repro.analysis.group import ExpectationMode, GroupAnalysis
from repro.application.configuration import Configuration
from repro.platform.platform import Platform

__all__ = ["ConfigurationEstimate", "evaluate_configuration"]


@dataclass(frozen=True)
class ConfigurationEstimate:
    """Probability / time / yield estimates for one candidate configuration.

    All quantities refer to the *remaining* work of the current iteration
    under this configuration, assuming (as the paper's estimators do) that
    the enrolled workers are UP at the instant of evaluation.
    """

    configuration: Configuration
    #: Remaining workload ``W`` in slots of simultaneous computation.
    workload: int
    #: Communication-phase estimate (Section V-B).
    communication: CommunicationEstimate
    #: ``P_comp`` — probability the computation phase completes with no failure.
    computation_probability: float
    #: ``E_comp`` — expected duration of the computation phase, given success.
    computation_time: float
    #: Slots already spent in the current iteration (the ``t`` of the yield).
    elapsed: int

    # ------------------------------------------------------------------
    @property
    def success_probability(self) -> float:
        """``P = P_comm × P_comp``."""
        return criteria.success_probability(
            self.communication.success_probability, self.computation_probability
        )

    @property
    def expected_time(self) -> float:
        """``E = E_comm + E_comp`` (remaining time, in slots)."""
        return criteria.expected_time(self.communication.expected_time, self.computation_time)

    @property
    def apparent_yield(self) -> float:
        """``AY = P / E`` — yield of the remaining work only."""
        return criteria.apparent_yield(self.success_probability, self.expected_time)


def evaluate_configuration(
    analysis: GroupAnalysis,
    platform: Platform,
    configuration: Configuration,
    *,
    comm_slots: Optional[Mapping[int, int]] = None,
    has_program: Iterable[int] = (),
    received_data: Optional[Mapping[int, int]] = None,
    workload: Optional[int] = None,
    completed_work: int = 0,
    elapsed: int = 0,
    mode: ExpectationMode = ExpectationMode.PAPER,
) -> ConfigurationEstimate:
    """Estimate probability, duration and yield of *configuration*.

    Parameters
    ----------
    analysis:
        The platform's :class:`GroupAnalysis`.
    platform:
        Supplies ``ncom``, ``Tprog``, ``Tdata`` and processor speeds.
    configuration:
        The candidate worker -> task-count mapping.
    comm_slots:
        Remaining per-worker communication slots ``n_q``.  When omitted it is
        derived from *has_program* / *received_data* via
        :meth:`Configuration.communication_slots` (the "fresh configuration"
        case of the passive heuristics).
    has_program, received_data:
        Used only when *comm_slots* is omitted: workers already holding the
        program, and data messages already received this iteration.
    workload:
        Total workload ``W = max_q x_q w_q`` of the configuration; computed
        from the configuration when omitted.
    completed_work:
        Slots of simultaneous computation already performed (proactive
        re-evaluation of a running configuration); subtracted from the
        workload.
    elapsed:
        Slots already spent in the current iteration (enters the yield).
    mode:
        Which ``E^(S)(W)`` estimator to use (paper formula or strict renewal).
    """
    if completed_work < 0:
        raise ValueError(f"completed_work must be >= 0, got {completed_work}")
    if elapsed < 0:
        raise ValueError(f"elapsed must be >= 0, got {elapsed}")

    if comm_slots is None:
        comm_slots = configuration.communication_slots(
            platform, has_program=has_program, received_data=received_data
        )
    if workload is None:
        workload = configuration.workload(platform)
    remaining_workload = max(int(workload) - int(completed_work), 0)

    communication = estimate_communication(
        analysis, comm_slots, ncom=platform.ncom, mode=mode
    )

    workers = configuration.workers
    if remaining_workload == 0 or not workers:
        computation_probability = 1.0
        computation_time = 0.0
    else:
        quantities = analysis.quantities(workers)
        computation_probability = quantities.success_probability(remaining_workload)
        computation_time = quantities.expected_time(remaining_workload, mode)

    return ConfigurationEstimate(
        configuration=configuration,
        workload=remaining_workload,
        communication=communication,
        computation_probability=computation_probability,
        computation_time=computation_time,
        elapsed=int(elapsed),
    )
