"""Slot accounting: every simulated slot is counted exactly once.

Each slot of a run is a communication, computation or idle slot, so the
three run totals add up to the makespan (the slot cap on failure), each
total is the sum of its per-iteration counters, and a completed iteration's
counters add up to its duration.  The fast paths account for whole spans at
once; this invariant guards them on the golden cases, a one-pass
multi-heuristic driver, a hazard substrate, a trace replay and a capped run.
"""

import pytest

from repro.application import Application
from repro.scheduling import create_scheduler
from repro.simulation import MultiHeuristicDriver, simulate

from tests.hazards.test_integration import HEURISTICS, SUBSTRATES, hazard_platform
from tests.simulation.test_golden_replay import GOLDEN_CASES, REFERENCES, case_id, run_case
from tests.simulation.test_multirun import (
    CONTRACT_HEURISTICS,
    MAX_SLOTS,
    golden_setup,
    random_trace,
)

COUNTERS = ("communication_slots", "computation_slots", "idle_slots")


def assert_slots_accounted(result):
    slots = result.makespan if result.success else result.max_slots
    assert sum(getattr(result, name) for name in COUNTERS) == slots
    for name in COUNTERS:
        assert sum(getattr(record, name) for record in result.iterations) == getattr(
            result, name
        ), name
    for record in result.iterations:
        if record.completed:
            assert sum(getattr(record, name) for name in COUNTERS) == record.duration


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("case", GOLDEN_CASES, ids=case_id)
def test_golden_runs(case, reference):
    assert_slots_accounted(run_case(case, record_events=REFERENCES[reference]))


def test_one_pass_driver():
    platform, application = golden_setup()
    results = MultiHeuristicDriver(
        platform,
        application,
        [create_scheduler(name) for name in CONTRACT_HEURISTICS],
        seed=7,
        max_slots=MAX_SLOTS,
    ).run()
    for result in results:
        assert_slots_accounted(result)


def test_hazard_substrate():
    kind, params, _ = SUBSTRATES[0]
    platform = hazard_platform(kind, params)
    application = Application(tasks_per_iteration=6, iterations=8)
    for name in HEURISTICS:
        result = simulate(
            platform, application, create_scheduler(name), seed=5, max_slots=MAX_SLOTS
        )
        assert_slots_accounted(result)


def test_trace_replay():
    platform, application = golden_setup()
    trace = random_trace(20, MAX_SLOTS, seed=99)
    for name in ("IE", "RANDOM", "Y-IE"):
        result = simulate(
            platform, application, create_scheduler(name), seed=5, max_slots=MAX_SLOTS,
            trace=trace,
        )
        assert_slots_accounted(result)


def test_capped_run():
    platform, application = golden_setup()
    result = simulate(platform, application, create_scheduler("IE"), seed=7, max_slots=300)
    assert not result.success
    assert_slots_accounted(result)
