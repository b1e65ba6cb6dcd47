"""Heuristics sharing one analysis context give the results they give alone.

``_run_cells`` binds every heuristic of a scenario to one
:class:`~repro.analysis.cache.AnalysisContext`, so the allocators of all 16
allocator-based heuristics share one greedy-path tree and one answer table.
A candidate's score and a call's answer are pure functions of their keys,
so each record must equal the one the heuristic produces on a context of
its own.
"""

import pytest

from repro.experiments import AvailabilitySpec, ExperimentScenario, ScenarioParameters
from repro.experiments.runner import _run_cells
from repro.scheduling import ALL_HEURISTICS

pytestmark = pytest.mark.slow

RUN = dict(iterations=3, makespan_cap=20_000)

SUBSTRATES = [
    pytest.param(None, id="markov"),
    pytest.param(
        AvailabilitySpec(
            kind="correlated",
            parameters=(("domains", 2), ("rate", 0.01), ("mean_outage", 10.0)),
        ),
        id="correlated",
    ),
]


def record(result):
    payload = result.as_dict()
    del payload["wall_time_seconds"]
    return payload


@pytest.mark.parametrize("availability", SUBSTRATES)
def test_shared_context_records_equal_fresh_context_records(availability):
    assert len(ALL_HEURISTICS) == 17
    scenario = ExperimentScenario(
        ScenarioParameters(m=5, ncom=4, wmin=2, num_processors=10),
        0,
        campaign="shared-allocator",
        availability=availability,
    )
    work = [(trial, name) for trial in range(2) for name in ALL_HEURISTICS]
    shared = {
        (result.trial_index, result.heuristic): record(result)
        for result in _run_cells(scenario, work, **RUN)
    }
    # A one-cell subset runs its heuristic solo on a context of its own.
    fresh = {
        (trial, name): record(next(_run_cells(scenario, [(trial, name)], **RUN)))
        for trial, name in work
    }
    assert shared == fresh
