"""Proactive heuristics C-H (Section VI-B).

A proactive heuristic is a pair (criterion ``C``, passive heuristic ``H``).
At every slot:

1. the measure of the *current* configuration under ``C`` is updated to
   account for the progress made so far (remaining communication, remaining
   workload, elapsed iteration time);
2. a *candidate* configuration is computed from scratch with ``H`` (as if no
   task were allocated to any worker — program possession, being persistent
   worker state, is still accounted for);
3. if the candidate scores strictly better than the current configuration
   under ``C``, the execution switches to the candidate (losing any partial
   computation); otherwise the current configuration runs for one more slot.

To guarantee convergence, only criteria for which a configuration's score
never degrades as it accumulates progress are allowed (P, E and Y — the
apparent yield AY is excluded, as in the paper).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.cache import EvaluationRequest
from repro.analysis.criteria import Criterion
from repro.application.configuration import Configuration
from repro.exceptions import SchedulingError
from repro.scheduling.base import Observation, Scheduler
from repro.scheduling.passive import PassiveHeuristic

__all__ = ["ProactiveHeuristic"]


class ProactiveHeuristic(Scheduler):
    """Proactive wrapper combining a switching criterion and a passive heuristic."""

    def __init__(
        self,
        criterion: Criterion,
        passive: PassiveHeuristic,
        name: Optional[str] = None,
        *,
        allow_unsafe_criterion: bool = False,
    ) -> None:
        super().__init__()
        if not criterion.proactive_safe and not allow_unsafe_criterion:
            raise SchedulingError(
                f"criterion {criterion.name!r} does not satisfy the proactive "
                "anti-divergence constraint (Section VI-B); pass "
                "allow_unsafe_criterion=True to experiment with it anyway"
            )
        self.criterion = criterion
        self.passive = passive
        self.name = name or f"{criterion.name}-{passive.name}"

    # ------------------------------------------------------------------
    def bind(self, platform, application, analysis, rng) -> None:
        super().bind(platform, application, analysis, rng)
        self.passive.bind(platform, application, analysis, rng)

    # ------------------------------------------------------------------
    def select(self, observation: Observation) -> Configuration:
        self._require_bound()

        # Mandatory rebuilds behave exactly like the underlying passive heuristic.
        if observation.needs_new_configuration():
            configuration = self.passive.build_configuration(observation)
            return configuration if configuration is not None else Configuration.empty()

        current = observation.current_configuration

        # 1. Candidate configuration computed from scratch by the passive
        #    heuristic (whose allocator replays the greedy steps earlier slots
        #    already scored, see IncrementalAllocator._allocate).
        candidate = self.passive.build_candidate(observation)

        # 2. Current and candidate are scored together: one evaluate_batch
        #    call fills any uncached group quantities, then estimates both.
        requests = [
            EvaluationRequest(
                configuration=current,
                comm_slots=observation.comm_remaining,
                completed_work=observation.progress,
                elapsed=observation.iteration_elapsed,
            )
        ]
        if candidate is not None and candidate != current:
            requests.append(
                EvaluationRequest(
                    configuration=candidate,
                    has_program=observation.has_program,
                    elapsed=observation.iteration_elapsed,
                )
            )
        estimates = self.analysis.evaluate_batch(requests)
        if len(estimates) == 1:
            return current
        current_value = self.criterion.value(estimates[0])
        candidate_value = self.criterion.value(estimates[1])

        # 3. Switch only on a strict improvement ("if c >= c2, keep the current one").
        if self.criterion.better(candidate_value, current_value):
            return candidate
        return current
