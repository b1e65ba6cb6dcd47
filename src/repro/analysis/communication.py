"""Communication-phase estimates of Section V-B.

Exact expressions for the communication phase are out of reach because of
the ``ncom`` constraint (at most ``ncom`` simultaneous master transfers), so
the paper uses a coarser estimate.  For a set ``S`` of enrolled workers where
worker ``P_q`` still needs ``n_q`` slots of communication (program and/or
task data):

* when ``|S| ≤ ncom`` every worker can hold a master channel whenever it is
  UP, so the per-worker expected communication time is the single-worker
  expectation ``E^{(P_q)}(n_q)`` of Section V-A and

  ``E_comm^(S) = max_q E^{(P_q)}(n_q)``;

* when ``|S| > ncom`` the master's bandwidth itself may be the bottleneck and

  ``E_comm^(S) = max( max_q E^{(P_q)}(n_q),  Σ_q n_q / ncom )``.

The success probability of the communication phase is estimated as

  ``P_comm^(S) = Π_q P^{(P_q)}_{ND}(E_comm^(S))``

i.e. the probability that no enrolled worker goes DOWN during the estimated
communication phase (rounded up to whole slots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.analysis.group import ExpectationMode, GroupAnalysis

__all__ = ["CommunicationEstimate", "estimate_communication"]


@dataclass(frozen=True)
class CommunicationEstimate:
    """Estimated duration and success probability of a communication phase.

    Attributes
    ----------
    expected_time:
        ``E_comm^(S)`` in slots (0.0 when nothing needs to be transferred).
    success_probability:
        ``P_comm^(S)``.
    bottleneck_master:
        True when the ``Σ n_q / ncom`` term (master bandwidth) dominated the
        per-worker term — useful diagnostics for the bandwidth-ablation
        benchmark.
    total_slots:
        ``Σ_q n_q`` — total master-slots of transfer work.
    """

    expected_time: float
    success_probability: float
    bottleneck_master: bool
    total_slots: int


def estimate_communication(
    analysis: GroupAnalysis,
    comm_slots: Mapping[int, int],
    *,
    ncom: int,
    mode: ExpectationMode = ExpectationMode.PAPER,
) -> CommunicationEstimate:
    """Estimate the communication phase for the workers in *comm_slots*.

    Parameters
    ----------
    analysis:
        The per-platform :class:`GroupAnalysis` (provides the single-worker
        expectations and no-DOWN probabilities).
    comm_slots:
        Mapping worker id -> ``n_q`` (slots of master communication still
        needed).  Workers with ``n_q = 0`` still participate in
        ``P_comm`` (they must survive the phase) but do not contribute to
        its duration.
    ncom:
        The master's simultaneous-transfer bound.
    mode:
        Which ``E^(S)(W)`` estimator to use for the per-worker expectations.
    """
    if ncom < 1:
        raise ValueError(f"ncom must be >= 1, got {ncom}")
    slots: Dict[int, int] = {}
    for worker, value in comm_slots.items():
        value = int(value)
        if value < 0:
            raise ValueError(f"communication slots for worker {worker} must be >= 0")
        slots[int(worker)] = value

    total_slots = sum(slots.values())
    if not slots or total_slots == 0:
        return CommunicationEstimate(
            expected_time=0.0,
            success_probability=1.0,
            bottleneck_master=False,
            total_slots=0,
        )

    per_worker_expectation = 0.0
    for worker, needed in slots.items():
        if needed == 0:
            continue
        quantities = analysis.quantities((worker,))
        per_worker_expectation = max(
            per_worker_expectation, quantities.expected_time(needed, mode)
        )

    expected = per_worker_expectation
    bottleneck_master = False
    if len(slots) > ncom:
        bandwidth_bound = total_slots / float(ncom)
        if bandwidth_bound > expected:
            expected = bandwidth_bound
            bottleneck_master = True

    if math.isinf(expected):
        return CommunicationEstimate(
            expected_time=math.inf,
            success_probability=0.0,
            bottleneck_master=bottleneck_master,
            total_slots=total_slots,
        )

    duration = int(math.ceil(expected))
    probability = 1.0
    for worker in slots:
        probability *= analysis.worker(worker).no_down_probability(duration)
    return CommunicationEstimate(
        expected_time=float(expected),
        success_probability=float(probability),
        bottleneck_master=bottleneck_master,
        total_slots=total_slots,
    )
