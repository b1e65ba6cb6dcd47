"""The greedy-path tree and answer table of the allocator are exact.

``IncrementalAllocator`` replays greedy states that earlier calls already
scored and only evaluates candidates a state has never seen; the allocators
bound to one analysis context share that tree and a table of answers,
whatever their criterion.  These tests drive them with the call sequences a
simulation produces — consecutive calls differing by one or two workers
flipping UP, program holders coming and going, reusable data, a moving
elapsed time — and compare every result with the scalar per-candidate loop
(``ScalarAllocator``) on a private analysis context.  Ties, tree and table
resets, mode changes, a stored NaN, the table's answers and the sharing of
one context by every criterion are covered explicitly.
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


def shared_state(context):
    """The tree and table the allocators bound to *context* share."""
    (shared,) = context.allocator_state.values()
    return shared


@pytest.mark.parametrize("criterion_name", ["E", "Y"])
def test_tree_resets_keep_results(monkeypatch, criterion_name):
    monkeypatch.setattr(allocation, "GREEDY_STATE_LIMIT", 8)
    platform = make_platform()
    tree, scalar = allocator_pair(platform, criterion_name)
    for call in walk(12, 120, seed=5):
        assert_sequence_matches(tree, scalar, [call])
        # A call starts a new tree at the limit and adds at most m states.
        assert shared_state(tree.analysis).num_states <= 8 + NUM_TASKS


def test_mode_change_starts_a_new_tree():
    platform = make_platform()
    context = AnalysisContext(platform)
    tree = IncrementalAllocator(get_criterion("E"), context, platform, NUM_TASKS)
    up = list(range(10))
    tree.allocate(up, has_program=[1, 4])
    paper_state = shared_state(context)
    context.mode = ExpectationMode.RENEWAL
    assert not context.allocator_state
    renewal = AnalysisContext(platform, mode=ExpectationMode.RENEWAL)
    scalar = ScalarAllocator(get_criterion("E"), renewal, platform, NUM_TASKS)
    assert tree.allocate(up, has_program=[1, 4]) == scalar.allocate(up, has_program=[1, 4])
    assert shared_state(context) is not paper_state


def test_task_counts_keep_separate_tables():
    platform = make_platform()
    context = AnalysisContext(platform)
    up = list(range(12))
    for num_tasks in (NUM_TASKS, 3):
        tree = IncrementalAllocator(get_criterion("E"), context, platform, num_tasks)
        scalar = ScalarAllocator(get_criterion("E"), AnalysisContext(platform), platform, num_tasks)
        assert tree.allocate(up, has_program=[2]) == scalar.allocate(up, has_program=[2])
    assert len(context.allocator_state) == 2


def test_cleared_context_starts_a_new_tree():
    platform = make_platform()
    context = AnalysisContext(platform)
    tree = IncrementalAllocator(get_criterion("P"), context, platform, NUM_TASKS)
    first = tree.allocate(list(range(10)))
    dropped = shared_state(context)
    context.clear_caches()
    assert tree.allocate(list(range(10))) == first
    assert shared_state(context) is not dropped


def test_stored_nan_keeps_the_scalar_winner_rule():
    platform = make_platform()
    context = AnalysisContext(platform)
    tree = IncrementalAllocator(get_criterion("P"), context, platform, NUM_TASKS)
    up = [0, 3, 5, 7, 9]
    tree.allocate(up)
    # Poison the first worker's pair at the root: the scalar loop keeps a
    # NaN that comes first (no later value compares greater), so worker 0
    # must take the first task.  The UP list passed in another order is a
    # question the table has not seen, so the call reaches ``_argmax``.
    shared_state(context).root.scored[0] = (math.nan, 1.0)
    assert tree.allocate(up[::-1]).tasks_on(0) >= 1


def test_repeated_question_is_answered_by_the_table():
    platform = make_platform()
    context = AnalysisContext(platform)
    tree = IncrementalAllocator(get_criterion("E"), context, platform, NUM_TASKS)
    up = list(range(12))
    first = tree.allocate(up, has_program=[2])
    tree.allocate(up[:-1], has_program=[2])
    # A, B, A, and A again from another heuristic's E allocator on the same
    # context: the table answers both with the first answer.
    twin = IncrementalAllocator(get_criterion("E"), context, platform, NUM_TASKS)
    context.tracer = recorder = CounterRecorder()
    assert tree.allocate(up, has_program=[2]) is first
    assert twin.allocate(up, has_program=[2]) is first
    assert len(recorder.counters) == 2
    for counters in recorder.counters:
        assert counters["repeats"] == 1
        assert counters["steps"] == counters["candidates"] == 0


def test_other_criterion_is_answered_by_the_tree():
    platform = make_platform()
    context = AnalysisContext(platform)
    tree = IncrementalAllocator(get_criterion("E"), context, platform, NUM_TASKS)
    up = list(range(12))
    tree.allocate(up, has_program=[2])
    # On this platform AY takes E's greedy path, so the tree holds every
    # candidate AY's call needs: it walks the tree and scores nothing.
    apparent = IncrementalAllocator(get_criterion("AY"), context, platform, NUM_TASKS)
    scalar = ScalarAllocator(get_criterion("AY"), AnalysisContext(platform), platform, NUM_TASKS)
    context.tracer = recorder = CounterRecorder()
    assert apparent.allocate(up, has_program=[2]) == scalar.allocate(up, has_program=[2])
    (counters,) = recorder.counters
    assert counters["repeats"] == 0
    assert counters["steps"] == NUM_TASKS
    assert counters["candidates"] > 0
    assert counters["path_hits"] == counters["candidates"]
    assert counters["computation_hits"] == counters["computation_misses"] == 0


def repeating_walk(num_workers, steps, seed, context):
    """``walk`` with each call repeated with probability 1/2.

    Between a call and its repeat the analysis mode may flip, the reusable
    data may go, and the elapsed time may move (which only Y's answer
    reads): the table must tell each of these apart from a true repeat.
    """
    rng = np.random.default_rng(seed)
    for up, program, received, elapsed in walk(num_workers, steps, seed):
        yield up, program, received, elapsed
        while rng.random() < 0.5:
            if rng.random() < 0.2:
                context.mode = (
                    ExpectationMode.RENEWAL
                    if context.mode is ExpectationMode.PAPER
                    else ExpectationMode.PAPER
                )
            if received and rng.random() < 0.2:
                received = None
            if rng.random() < 0.2:
                elapsed += 1
            yield up, program, received, elapsed


@pytest.mark.parametrize("criterion_name", CRITERIA)
def test_repeating_sequences_match_the_scalar_loop(criterion_name):
    platform = make_platform()
    context = AnalysisContext(platform)
    tree = IncrementalAllocator(get_criterion(criterion_name), context, platform, NUM_TASKS)
    tree.analysis.tracer = recorder = CounterRecorder()
    scalars = {
        mode: ScalarAllocator(
            get_criterion(criterion_name),
            AnalysisContext(platform, mode=mode),
            platform,
            NUM_TASKS,
        )
        for mode in ExpectationMode
    }
    for index, (up, program, received, elapsed) in enumerate(
        repeating_walk(12, 200, seed=7, context=context)
    ):
        expected = scalars[context.mode].allocate(
            up, has_program=program, received_data=received, elapsed=elapsed
        )
        actual = tree.allocate(
            up,
            has_program=(worker for worker in program),
            received_data=received,
            elapsed=elapsed,
        )
        assert actual == expected, f"call {index} (criterion {criterion_name})"
    assert sum(counters["repeats"] for counters in recorder.counters) > 0


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


def assert_shared_context_matches(platform, context, calls):
    """Allocators for every criterion, bound to *context*, answer like private scalars.

    Each call is asked by every criterion as a proactive candidate (no
    reusable data), then once more as a rebuild with the call's reusable
    data by one criterion, in turn.  Every answer must equal that of the
    criterion's own ``ScalarAllocator`` on a private context in the same
    analysis mode.
    """
    trees = {
        name: IncrementalAllocator(get_criterion(name), context, platform, NUM_TASKS)
        for name in CRITERIA
    }
    scalars = {}
    for index, (up, program, received, elapsed) in enumerate(calls):
        rebuild = CRITERIA[index % len(CRITERIA)]
        for name, reusable in [(name, None) for name in CRITERIA] + [(rebuild, received)]:
            mode = context.mode
            if (name, mode) not in scalars:
                scalars[name, mode] = ScalarAllocator(
                    get_criterion(name), AnalysisContext(platform, mode=mode), platform, NUM_TASKS
                )
            expected = scalars[name, mode].allocate(
                up, has_program=program, received_data=reusable, elapsed=elapsed
            )
            actual = trees[name].allocate(
                up, has_program=program, received_data=reusable, elapsed=elapsed
            )
            assert actual == expected, (
                f"call {index}: criterion {name} on the shared context gave {actual}, "
                f"its scalar loop {expected} (up={up}, program={program}, "
                f"received={reusable}, elapsed={elapsed}, mode={mode})"
            )


@pytest.mark.parametrize("seed", [3, 13])
def test_criteria_sharing_a_context_match_their_scalar_loops(seed):
    platform = make_platform()
    context = AnalysisContext(platform)
    context.tracer = recorder = CounterRecorder()
    assert_shared_context_matches(platform, context, walk(12, 150, seed=seed))
    # The criteria walk one tree: most candidates came from it, and the
    # table answered the rebuilds that carried no reusable data.
    path_hits = sum(counters["path_hits"] for counters in recorder.counters)
    candidates = sum(counters["candidates"] for counters in recorder.counters)
    assert path_hits > candidates / 2
    assert sum(counters["repeats"] for counters in recorder.counters) > 0


def test_mode_switch_in_a_shared_walk_keeps_results():
    platform = make_platform()
    context = AnalysisContext(platform)
    calls = list(walk(12, 120, seed=17))

    def switching():
        for index, call in enumerate(calls):
            if index in (40, 80):
                context.mode = (
                    ExpectationMode.RENEWAL
                    if context.mode is ExpectationMode.PAPER
                    else ExpectationMode.PAPER
                )
            yield call

    assert_shared_context_matches(platform, context, switching())
    assert context.mode is ExpectationMode.PAPER


def test_tiny_shared_bounds_keep_results(monkeypatch):
    monkeypatch.setattr(allocation, "GREEDY_STATE_LIMIT", 8)
    monkeypatch.setattr(allocation, "ANSWER_LIMIT", 4)
    platform = make_platform()
    context = AnalysisContext(platform)
    for call in walk(12, 80, seed=23):
        assert_shared_context_matches(platform, context, [call])
        shared = shared_state(context)
        # A call starts a new tree at the limit and adds at most m states;
        # the table is emptied when full before it takes a new answer.
        assert shared.num_states <= 8 + NUM_TASKS
        assert len(shared.answers) <= 4


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    calls=st.lists(
        st.tuples(
            st.sets(st.integers(0, 7), min_size=1),
            st.sets(st.integers(0, 7)),
            st.dictionaries(st.integers(0, 7), st.integers(1, 2), max_size=2),
            st.integers(0, 60),
        ),
        min_size=1,
        max_size=20,
    ),
)
def test_drawn_sequences_on_a_shared_context_match_the_scalar_loops(seed, calls):
    platform = make_platform(num_processors=8, seed=seed)
    drawn = [
        (sorted(up), sorted(program), received, elapsed)
        for up, program, received, elapsed in calls
    ]
    assert_shared_context_matches(platform, AnalysisContext(platform), drawn)


ratio_edge_values = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -math.inf, math.inf, math.nan]),
    st.floats(-10.0, 1e6, allow_nan=False),
)
scored_pairs = st.one_of(
    st.none(),
    st.tuples(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        ratio_edge_values,
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(scored_pairs, min_size=1, max_size=8),
    st.sampled_from(CRITERIA),
    st.one_of(st.just(0), st.integers(0, 50)),
)
def test_argmax_is_the_first_best_pair_value(pairs, name, elapsed):
    # ``_argmax`` inlines the criteria's float expressions, edge branch
    # included: P = 0 over a non-positive denominator scores 0, not inf.
    criterion = get_criterion(name)
    tokens = list(range(len(pairs)))
    scored = dict(zip(tokens, pairs))
    expected = None
    best = None
    for token in tokens:
        if scored[token] is None:
            continue
        value = criterion.pair_value(*scored[token], elapsed)
        if expected is None or (
            value > best if criterion.higher_is_better else value < best
        ):
            expected, best = token, value
    got = allocation._argmax(tokens, scored, name, criterion.higher_is_better, elapsed)
    assert got == expected
