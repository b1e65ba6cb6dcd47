"""The proactive switch test on memoised pairs decides like the estimate-based oracle.

``ProactiveHeuristic.select`` compares ``(probability, expected time)``
pairs read from the analysis memos and a shared table of candidate pairs;
``reference_select`` (``tests/scheduling/switch_oracle.py``) takes the same
decision from ``evaluate_batch`` estimates, ``Criterion.value`` and
``Criterion.better``.  Both must return the same object, current or
candidate, on generated platforms and observations — partial communication,
partial progress, any elapsed time, any program holders, mappings in either
worker order, a mode change between slots — on every slot of whole
simulations of the twelve proactive heuristics, and on an exact tie.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cache import AnalysisContext
from repro.analysis.group import ExpectationMode
from repro.application import Application, Configuration
from repro.availability.generators import paper_transition_matrix
from repro.availability.markov import MarkovAvailabilityModel
from repro.platform import Platform, PlatformSpec, Processor, paper_platform
from repro.scheduling import create_scheduler
from repro.scheduling.base import Observation
from repro.simulation import simulate
from repro.types import DOWN, RECLAIMED, UP

from tests.scheduling.switch_oracle import reference_select

NUM_TASKS = 5
NUM_PROCESSORS = 8
PROACTIVE = [f"{c}-{p}" for c in ("P", "E", "Y") for p in ("IP", "IE", "IY", "IAY")]


def make_platform(seed, ncom=2, wmin=1):
    return paper_platform(
        PlatformSpec(num_processors=NUM_PROCESSORS, ncom=ncom, wmin=wmin),
        num_tasks=NUM_TASKS,
        seed=seed,
    )


def bind(name, platform, context):
    scheduler = create_scheduler(name)
    application = Application(tasks_per_iteration=NUM_TASKS, iterations=3)
    scheduler.bind(platform, application, context, np.random.default_rng(0))
    return scheduler


@st.composite
def observations(draw, platform):
    """A mid-iteration observation of a running configuration on *platform*."""
    workers = sorted(
        draw(st.sets(st.integers(0, NUM_PROCESSORS - 1), min_size=1, max_size=NUM_TASKS))
    )
    allocation = dict.fromkeys(workers, 1)
    for _ in range(NUM_TASKS - len(workers)):
        allocation[draw(st.sampled_from(workers))] += 1
    current = Configuration(allocation)
    # Enrolled workers are UP or RECLAIMED (a DOWN one is a failure slot).
    states = [
        draw(st.sampled_from([UP, RECLAIMED] if worker in allocation else [UP, RECLAIMED, DOWN]))
        for worker in range(NUM_PROCESSORS)
    ]
    holders = frozenset(draw(st.sets(st.integers(0, NUM_PROCESSORS - 1))))
    full = current.communication_slots(platform, has_program=holders)
    comm_remaining = {worker: draw(st.integers(0, slots)) for worker, slots in full.items()}
    if draw(st.booleans()):
        comm_remaining = dict(reversed(list(comm_remaining.items())))
    progress = 0
    if not any(comm_remaining.values()):
        progress = draw(st.integers(0, current.workload(platform) - 1))
    return Observation(
        slot=draw(st.integers(1, 10_000)),
        states=np.array(states, dtype=np.int8),
        current_configuration=current,
        iteration_index=0,
        iteration_elapsed=draw(st.integers(0, 300)),
        progress=progress,
        failure=False,
        new_iteration=False,
        has_program=holders,
        data_received={},
        comm_remaining=comm_remaining,
    )


@st.composite
def scenarios(draw):
    """A platform, a proactive heuristic and a run of observations with mode flips."""
    platform = make_platform(
        draw(st.integers(0, 2**16)),
        ncom=draw(st.sampled_from([1, 2, 4])),
        wmin=draw(st.sampled_from([1, 3])),
    )
    name = draw(st.sampled_from(PROACTIVE))
    steps = draw(st.lists(st.tuples(observations(platform), st.booleans()), min_size=1, max_size=6))
    return platform, name, steps


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenario=scenarios())
def test_drawn_observations_decide_like_the_estimate_oracle(scenario):
    platform, name, steps = scenario
    context = AnalysisContext(platform)
    scheduler = bind(name, platform, context)
    for index, (observation, flip_mode) in enumerate(steps):
        if flip_mode:
            context.mode = (
                ExpectationMode.RENEWAL
                if context.mode is ExpectationMode.PAPER
                else ExpectationMode.PAPER
            )
        expected = reference_select(scheduler, observation)
        # The candidate pair is memoised: ask twice, from the table the second time.
        for _ in range(2):
            assert scheduler.select(observation) is expected, (
                f"{name}, observation {index}: {observation}"
            )


@pytest.mark.parametrize("seed", [5, 11])
def test_simulated_slots_decide_like_the_estimate_oracle(seed):
    platform = make_platform(seed, ncom=2, wmin=1)
    application = Application(tasks_per_iteration=NUM_TASKS, iterations=4)
    context = AnalysisContext(platform)
    outcomes = {"kept": 0, "switched": 0}
    for name in PROACTIVE:
        scheduler = create_scheduler(name)
        select = scheduler.select

        def checked(observation, scheduler=scheduler, select=select, name=name):
            expected = reference_select(scheduler, observation)
            actual = select(observation)
            current = observation.current_configuration
            if observation.needs_new_configuration():
                # A rebuild with too few UP workers is a fresh empty configuration.
                assert actual == expected, f"{name}, slot {observation.slot}"
            else:
                assert actual is expected, f"{name}, slot {observation.slot}"
                candidate = scheduler.passive.build_candidate(observation)
                if candidate is not None and candidate != current:
                    outcomes["kept" if actual is current else "switched"] += 1
            return actual

        scheduler.select = checked
        simulate(platform, application, scheduler, seed=seed, max_slots=3_000, analysis=context)
    # Both outcomes of the switch test were compared, many times.
    assert outcomes["kept"] > 20 and outcomes["switched"] > 0, outcomes


@pytest.mark.parametrize("criterion_name", ["P", "E", "Y"])
def test_a_tying_candidate_keeps_the_current_configuration(criterion_name):
    # Identical workers: the candidate moved to higher worker ids scores
    # exactly as the candidate itself, and only a strict improvement switches.
    model = MarkovAvailabilityModel(paper_transition_matrix([0.95, 0.9, 0.9]))
    platform = Platform(
        [Processor(speed=2, capacity=2, availability=model) for _ in range(NUM_PROCESSORS)],
        ncom=2,
        tprog=3,
        tdata=1,
    )
    scheduler = bind(f"{criterion_name}-IE", platform, AnalysisContext(platform))
    states = np.array([UP] * NUM_PROCESSORS, dtype=np.int8)
    probe = Observation(
        slot=1, states=states, current_configuration=Configuration.empty(),
        iteration_index=0, iteration_elapsed=7, progress=0, failure=False,
        new_iteration=True, has_program=frozenset(),
    )
    candidate = scheduler.passive.build_candidate(probe)
    shift = NUM_PROCESSORS - 1 - max(candidate.workers)
    assert shift > 0
    current = Configuration({worker + shift: tasks for worker, tasks in candidate.items()})
    observation = dataclasses.replace(
        probe,
        current_configuration=current,
        new_iteration=False,
        comm_remaining=current.communication_slots(platform),
    )
    current_pair, candidate_pair = scheduler.analysis.switch_pairs(
        current, observation.comm_remaining, 0, candidate, frozenset()
    )
    assert current_pair == candidate_pair
    assert scheduler.select(observation) is current
    assert reference_select(scheduler, observation) is current
