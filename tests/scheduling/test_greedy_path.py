"""The greedy-path tree of the allocator is exact.

``IncrementalAllocator`` replays greedy states that earlier calls already
scored and only evaluates candidates a state has never seen.  These tests
drive it with the call sequences a simulation produces — consecutive calls
differing by one or two workers flipping UP, program holders coming and
going, reusable data, a moving elapsed time — and compare every result with
the scalar per-candidate loop (``ScalarAllocator``) on a fresh analysis
context.  Ties, tree resets, mode changes and a stored NaN are covered
explicitly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cache import AnalysisContext
from repro.analysis.criteria import get_criterion
from repro.analysis.group import ExpectationMode
from repro.availability.generators import paper_transition_matrix
from repro.availability.markov import MarkovAvailabilityModel
from repro.platform import Platform, PlatformSpec, Processor, paper_platform
from repro.scheduling import allocation
from repro.scheduling.allocation import IncrementalAllocator

from tests.scheduling.scalar_allocator import ScalarAllocator

CRITERIA = ("P", "E", "Y", "AY")
NUM_TASKS = 5


def make_platform(num_processors=12, seed=29):
    return paper_platform(
        PlatformSpec(num_processors=num_processors, ncom=4, wmin=2),
        num_tasks=NUM_TASKS,
        seed=seed,
    )


def twin_platform(num_processors=6):
    """Identical workers: every candidate of a step ties with its twins."""
    model = MarkovAvailabilityModel(paper_transition_matrix([0.95, 0.9, 0.9]))
    processors = [
        Processor(speed=2, capacity=2, availability=model) for _ in range(num_processors)
    ]
    return Platform(processors, ncom=2, tprog=3, tdata=1)


def allocator_pair(platform, criterion_name):
    criterion = get_criterion(criterion_name)
    tree = IncrementalAllocator(criterion, AnalysisContext(platform), platform, NUM_TASKS)
    scalar = ScalarAllocator(criterion, AnalysisContext(platform), platform, NUM_TASKS)
    return tree, scalar


def walk(num_workers, steps, seed):
    """Correlated allocation inputs, one per slot, like a simulation's."""
    rng = np.random.default_rng(seed)
    up = set(int(w) for w in rng.choice(num_workers, size=num_workers // 2, replace=False))
    program = set()
    elapsed = 0
    for _ in range(steps):
        for worker in rng.choice(num_workers, size=int(rng.integers(1, 3)), replace=False):
            up ^= {int(worker)}
        if rng.random() < 0.15:
            program ^= {int(rng.integers(num_workers))}
        received = None
        if rng.random() < 0.1:
            received = {w: int(rng.integers(1, 3)) for w in up if rng.random() < 0.3}
        elapsed = 0 if rng.random() < 0.05 else elapsed + 1
        yield sorted(up), sorted(program), received, elapsed


class CounterRecorder:
    """Tracer stand-in that keeps the counters of each accumulated span."""

    def __init__(self):
        self.counters = []

    def accumulate(self, name, begin, *, counters=None, **attrs):
        self.counters.append(dict(counters or {}))


def assert_sequence_matches(tree, scalar, calls):
    for index, (up, program, received, elapsed) in enumerate(calls):
        expected = scalar.allocate(
            up, has_program=program, received_data=received, elapsed=elapsed
        )
        actual = tree.allocate(up, has_program=program, received_data=received, elapsed=elapsed)
        assert actual == expected, (
            f"call {index}: tree {actual} != scalar {expected} "
            f"(criterion {tree.criterion.name}, up={up}, program={program}, "
            f"received={received}, elapsed={elapsed})"
        )


@pytest.mark.parametrize("criterion_name", CRITERIA)
def test_correlated_sequences_match_the_scalar_loop(criterion_name):
    platform = make_platform()
    tree, scalar = allocator_pair(platform, criterion_name)
    tree.analysis.tracer = recorder = CounterRecorder()
    assert_sequence_matches(tree, scalar, walk(12, 300, seed=3))
    # The walk revisits states: most candidates came from the tree.
    path_hits = sum(counters["path_hits"] for counters in recorder.counters)
    candidates = sum(counters["candidates"] for counters in recorder.counters)
    assert path_hits > candidates / 2


@pytest.mark.parametrize("criterion_name", CRITERIA)
def test_ties_resolve_by_ascending_worker(criterion_name):
    platform = twin_platform()
    tree, scalar = allocator_pair(platform, criterion_name)
    assert_sequence_matches(tree, scalar, walk(6, 200, seed=11))


@pytest.mark.parametrize("criterion_name", ["E", "Y"])
def test_tree_resets_keep_results(monkeypatch, criterion_name):
    monkeypatch.setattr(allocation, "GREEDY_STATE_LIMIT", 8)
    platform = make_platform()
    tree, scalar = allocator_pair(platform, criterion_name)
    for call in walk(12, 120, seed=5):
        assert_sequence_matches(tree, scalar, [call])
        # A call starts a new tree at the limit and adds at most m states.
        assert tree._num_states <= 8 + NUM_TASKS


def test_mode_change_starts_a_new_tree():
    platform = make_platform()
    context = AnalysisContext(platform)
    tree = IncrementalAllocator(get_criterion("E"), context, platform, NUM_TASKS)
    up = list(range(10))
    tree.allocate(up, has_program=[1, 4])
    context.mode = ExpectationMode.RENEWAL
    renewal = AnalysisContext(platform, mode=ExpectationMode.RENEWAL)
    scalar = ScalarAllocator(get_criterion("E"), renewal, platform, NUM_TASKS)
    assert tree.allocate(up, has_program=[1, 4]) == scalar.allocate(up, has_program=[1, 4])


def test_stored_nan_keeps_the_scalar_winner_rule():
    platform = make_platform()
    tree = IncrementalAllocator(get_criterion("P"), AnalysisContext(platform), platform, NUM_TASKS)
    up = [0, 3, 5, 7, 9]
    tree.allocate(up)
    # Poison the first worker's score at the root: the scalar loop keeps a
    # NaN that comes first (no later value compares greater), so worker 0
    # must take the first task.
    tree._root.scored[0] = math.nan
    assert tree.allocate(up).tasks_on(0) >= 1


def test_repeat_call_is_answered_by_the_tree():
    platform = make_platform()
    context = AnalysisContext(platform)
    tree = IncrementalAllocator(get_criterion("E"), context, platform, NUM_TASKS)
    up = list(range(12))
    first = tree.allocate(up, has_program=[2])
    context.tracer = recorder = CounterRecorder()
    assert tree.allocate(up, has_program=[2]) is first
    (counters,) = recorder.counters
    assert counters["steps"] == NUM_TASKS
    assert counters["candidates"] > 0
    assert counters["path_hits"] == counters["candidates"]
    assert counters["computation_hits"] == counters["computation_misses"] == 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    criterion_name=st.sampled_from(CRITERIA),
    seed=st.integers(0, 2**16),
    calls=st.lists(
        st.tuples(
            st.sets(st.integers(0, 7), min_size=1),
            st.sets(st.integers(0, 7)),
            st.dictionaries(st.integers(0, 7), st.integers(1, 2), max_size=2),
            st.integers(0, 60),
        ),
        min_size=1,
        max_size=25,
    ),
)
def test_drawn_sequences_match_the_scalar_loop(criterion_name, seed, calls):
    platform = make_platform(num_processors=8, seed=seed)
    tree, scalar = allocator_pair(platform, criterion_name)
    drawn = [
        (sorted(up), sorted(program), received, elapsed)
        for up, program, received, elapsed in calls
    ]
    assert_sequence_matches(tree, scalar, drawn)
