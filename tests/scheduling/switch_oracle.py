"""The proactive switch test built on estimate objects: a test oracle.

``ProactiveHeuristic.select`` scores the current configuration and a
differing candidate from their memoised ``(probability, expected time)``
pairs (``AnalysisContext.switch_pairs``) and the criterion's
``pair_value``.  :func:`reference_select` is the same decision taken the
way the heuristic took it before: one ``evaluate_batch`` call building an
estimate for each configuration, then ``Criterion.value`` and
``Criterion.better`` on those estimates.
``tests/scheduling/test_switch_oracle.py`` pins the two against each other.
"""

from repro.analysis.cache import EvaluationRequest
from repro.application.configuration import Configuration


def reference_select(scheduler, observation):
    """What *scheduler* (a bound ``ProactiveHeuristic``) selects, via estimates.

    Returns the very object the decision picks: the observation's current
    configuration, the passive heuristic's candidate or its rebuild.
    """
    if observation.needs_new_configuration():
        configuration = scheduler.passive.build_configuration(observation)
        return configuration if configuration is not None else Configuration.empty()
    current = observation.current_configuration
    candidate = scheduler.passive.build_candidate(observation)
    if candidate is None or candidate == current:
        return current
    current_estimate, candidate_estimate = scheduler.analysis.evaluate_batch(
        [
            EvaluationRequest(
                configuration=current,
                comm_slots=observation.comm_remaining,
                completed_work=observation.progress,
                elapsed=observation.iteration_elapsed,
            ),
            EvaluationRequest(
                configuration=candidate,
                has_program=observation.has_program,
                elapsed=observation.iteration_elapsed,
            ),
        ]
    )
    criterion = scheduler.criterion
    if criterion.better(criterion.value(candidate_estimate), criterion.value(current_estimate)):
        return candidate
    return current
