"""Golden-seed regression tests for the chunked simulation core.

``golden_engine_results.json`` was generated with the pre-refactor engine
(slot-by-slot ``next_state`` sampling, no fast-forwarding).  The engine must
reproduce every one of those runs bit for bit — on its default fast paths,
on the slot-by-slot path that ``record_events=True`` forces, and at any
block size — because the models' block samplers are stream-equivalent and
the fast-forward jumps are exact.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.cache import AnalysisContext
from repro.application import Application
from repro.availability.diurnal import DiurnalAvailabilityModel
from repro.availability.semi_markov import SemiMarkovAvailabilityModel
from repro.platform import Platform, PlatformSpec, Processor, paper_platform
from repro.scheduling import create_scheduler
from repro.simulation import SimulationEngine

GOLDEN_PATH = Path(__file__).parent / "golden_engine_results.json"
GOLDEN_CASES = json.loads(GOLDEN_PATH.read_text())

RESULT_FIELDS = (
    "success",
    "makespan",
    "completed_iterations",
    "total_restarts",
    "total_configuration_changes",
    "communication_slots",
    "computation_slots",
    "idle_slots",
)


def build_setup(case):
    if case["kind"] == "markov":
        platform = paper_platform(
            PlatformSpec(num_processors=20, ncom=10, wmin=2), num_tasks=5, seed=123
        )
        application = Application(tasks_per_iteration=5, iterations=10)
    elif case["kind"] == "semimarkov":
        processors = [
            Processor(
                speed=1 + (q % 4),
                capacity=5,
                availability=SemiMarkovAvailabilityModel.desktop_grid(mean_up=30.0 + q),
            )
            for q in range(8)
        ]
        platform = Platform(processors, ncom=4, tprog=2, tdata=1)
        application = Application(tasks_per_iteration=4, iterations=5)
    else:
        processors = [
            Processor(
                speed=2,
                capacity=5,
                availability=DiurnalAvailabilityModel.office_hours(phase_offset=7 * q),
            )
            for q in range(6)
        ]
        platform = Platform(processors, ncom=3, tprog=2, tdata=1)
        application = Application(tasks_per_iteration=3, iterations=5)
    return platform, application


#: The two engine paths: default fast paths, and the slot-by-slot reference
#: path that keeping an event log forces.
REFERENCES = {"fast": False, "per-slot": True}


def run_case(case, *, block_size=4096, metrics=None, record_events=False):
    platform, application = build_setup(case)
    engine = SimulationEngine(
        platform,
        application,
        create_scheduler(case["heuristic"]),
        seed=case["seed"],
        max_slots=50_000,
        analysis=AnalysisContext(platform),
        block_size=block_size,
        metrics=metrics,
        record_events=record_events,
    )
    return engine.run()


def case_id(case):
    return f"{case['kind']}-{case['heuristic']}-s{case['seed']}"


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("case", GOLDEN_CASES, ids=case_id)
def test_engine_reproduces_golden_run(case, reference):
    result = run_case(case, record_events=REFERENCES[reference])
    for field in RESULT_FIELDS:
        assert getattr(result, field) == case[field], field


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("block_size", [1, 17, 512])
def test_block_size_does_not_change_results(block_size, reference):
    """The chunk decomposition is an implementation detail, not a parameter."""
    for case in GOLDEN_CASES[:6]:
        result = run_case(
            case, block_size=block_size, record_events=REFERENCES[reference]
        )
        for field in RESULT_FIELDS:
            assert getattr(result, field) == case[field], (case_id(case), field)


@pytest.mark.parametrize("heuristic", ["RANDOM", "IE", "Y-IE", "E-IAY", "THRESHOLD-IE"])
def test_fast_paths_match_per_slot_path(heuristic):
    """Differential check on a fresh platform, including proactive heuristics."""
    case = {"kind": "markov", "heuristic": heuristic, "seed": 1234}
    fast = run_case(case)
    per_slot = run_case(case, record_events=True)
    assert fast == per_slot  # dataclass eq: every field + every iteration record
