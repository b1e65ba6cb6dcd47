"""Proactive heuristics C-H (Section VI-B).

A proactive heuristic is a pair (criterion ``C``, passive heuristic ``H``).
At every slot:

1. a *candidate* configuration is computed from scratch with ``H`` (as if no
   task were allocated to any worker — program possession, being persistent
   worker state, is still accounted for);
2. only when the candidate exists and differs from the *current*
   configuration are both measured under ``C``, the current one accounting
   for the progress made so far (remaining communication, remaining
   workload, elapsed iteration time) — a missing or identical candidate
   cannot win, so nothing is measured for it.  Both are measured by their
   ``(probability, expected time)`` pairs from
   :meth:`~repro.analysis.cache.AnalysisContext.switch_pairs`, which reads
   the analysis memos and keeps the candidate's pair in a table the
   scenario's heuristics share; ``C`` turns each pair into its value with
   the float expressions of :mod:`repro.analysis.criteria`;
3. if the candidate scores strictly better than the current configuration
   under ``C``, the execution switches to the candidate (losing any partial
   computation); otherwise the current configuration runs for one more slot.

To guarantee convergence, only criteria for which a configuration's score
never degrades as it accumulates progress are allowed (P, E and Y — the
apparent yield AY is excluded, as in the paper).
"""

from __future__ import annotations

from typing import Optional

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

        # 2. A candidate that is missing or equal to the current configuration
        #    cannot win, so only a differing one is scored, together with
        #    the current configuration, from their (P, E) pairs.
        if candidate is None or candidate == current:
            return current
        (current_p, current_e), (candidate_p, candidate_e) = self.analysis.switch_pairs(
            current,
            observation.comm_remaining,
            observation.progress,
            candidate,
            observation.has_program,
        )
        elapsed = observation.iteration_elapsed
        criterion = self.criterion

        # 3. Switch only on a strict improvement ("if c >= c2, keep the current one").
        if criterion.better(
            criterion.pair_value(candidate_p, candidate_e, elapsed),
            criterion.pair_value(current_p, current_e, elapsed),
        ):
            return candidate
        return current
