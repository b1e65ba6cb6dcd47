"""Differential tests of the engine's span-scan primitives.

Every primitive in :mod:`repro.simulation.kernels` is checked against a
dumb slot-by-slot reference.  The per-worker event lists of
:class:`BlockData` run on seeded random blocks and are also a Hypothesis
property.  The three span scans keep their seeded random cases and are also
Hypothesis properties over generated blocks, with the edge cases the engine
relies on pinned as explicit examples: one-column blocks, all-DOWN rows, a
scan starting at the last column, an empty enrolled set, ``needed <= 1``, a
single worker that still needs data and a communication jump cut short by
DOWN.
"""

from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulation.kernels import (
    BlockData,
    block_companions,
    comm_phase_span,
    compute_span,
    frozen_span,
)

UP, RECLAIMED, DOWN = 0, 1, 2


def random_block(rng, num_workers, length, p_down=0.2):
    """A random state block with realistic dwell (runs of equal states)."""
    block = np.empty((num_workers, length), dtype=np.int8)
    for q in range(num_workers):
        col = 0
        while col < length:
            state = rng.choice([UP, UP, RECLAIMED, DOWN], p=None)
            if state == DOWN and rng.random() > p_down:
                state = UP
            run = int(rng.integers(1, 6))
            block[q, col : col + run] = state
            col += run
    return block


def brute_events(block, q):
    """Worker *q*'s non-UP, DOWN and state-change columns, column by column."""
    non_up, down, changes = [], [], []
    for k in range(block.shape[1]):
        if block[q, k] != UP:
            non_up.append(k)
        if block[q, k] == DOWN:
            down.append(k)
        if k > 0 and block[q, k] != block[q, k - 1]:
            changes.append(k)
    return non_up, down, changes


def as_lists(events):
    return tuple(columns.tolist() for columns in events)


def brute_frozen_span(block, enrolled, rel):
    length = block.shape[1]
    span = 0
    while rel + span + 1 < length and all(
        block[q, rel + span + 1] == block[q, rel] for q in enrolled
    ):
        span += 1
    if enrolled.size == 0:
        span = length - rel - 1
    return span


def brute_compute_span(block, enrolled, rel, length, needed):
    needed_eff = max(needed, 1)
    advance = progressed = 0
    for col in range(rel + 1, length):
        states = block[enrolled, col]
        if (states == DOWN).any():
            break
        if (states == UP).all():
            if progressed + 1 >= needed_eff:
                break  # the completing slot is left to the per-slot path
            progressed += 1
        advance += 1
    return advance, progressed


def brute_comm_phase(block, enrolled, needs, rel, length):
    """Slot-by-slot surplus-capacity policy: every needing UP worker served."""
    count = len(enrolled)
    units = np.zeros(count, dtype=np.int64)
    holders = np.zeros(count, dtype=bool)
    advance = 0
    for col in range(rel, length):
        states = block[enrolled, col]
        if (states == DOWN).any():
            break
        holders[:] = False
        serve = (states == UP) & (units < needs)
        units[serve] += 1
        holders[serve] = True
        advance += 1
        if (units >= needs).all():
            break
    return advance, units, holders


def check_comm_phase(block, ids, needs, rel):
    """``comm_phase_span`` against the slot-by-slot policy."""
    advance, units, holders = comm_phase_span(
        BlockData(block, None), ids.tolist(), needs.tolist(), rel
    )
    expected = brute_comm_phase(block, ids, needs, rel, block.shape[1])
    assert advance == expected[0]
    assert units == expected[1].tolist()
    assert holders == ids[expected[2]].tolist()


@pytest.mark.parametrize("seed", range(6))
def test_block_data_events_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    block = random_block(rng, num_workers=5, length=40)
    data = BlockData(block, None)
    for q in range(5):
        assert as_lists(data.events(q)) == brute_events(block, q)


def test_block_companions_matches_brute_force():
    rng = np.random.default_rng(7)
    block = random_block(rng, num_workers=4, length=30)
    for last_column in (None, block[:, 0].copy(), np.full(4, DOWN, dtype=np.int8)):
        down, same = block_companions(block, last_column)
        for j in range(block.shape[1]):
            assert down[j] == (block[:, j] == DOWN).any()
            if j == 0:
                expected = last_column is not None and np.array_equal(
                    block[:, 0], last_column
                )
            else:
                expected = np.array_equal(block[:, j], block[:, j - 1])
            assert same[j] == expected, j


@pytest.mark.parametrize("seed", range(8))
def test_frozen_span_variants_agree_with_brute_force(seed):
    rng = np.random.default_rng(100 + seed)
    block = random_block(rng, num_workers=6, length=50)
    data = BlockData(block, None)
    length = block.shape[1]
    for _ in range(20):
        size = int(rng.integers(0, 5))
        enrolled = np.sort(rng.choice(6, size=size, replace=False)).astype(np.int64)
        rel = int(rng.integers(0, length))
        span = brute_frozen_span(block, enrolled, rel)
        assert frozen_span(data, enrolled.tolist(), rel) == span


@pytest.mark.parametrize("seed", range(8))
def test_compute_span_variants_agree_with_brute_force(seed):
    rng = np.random.default_rng(200 + seed)
    block = np.ascontiguousarray(random_block(rng, num_workers=6, length=700))
    data = BlockData(block, None)
    length = block.shape[1]
    for _ in range(15):
        size = int(rng.integers(1, 5))
        enrolled = np.sort(rng.choice(6, size=size, replace=False)).astype(np.int64)
        rel = int(rng.integers(0, length))
        needed = int(rng.integers(1, 8))
        expected = brute_compute_span(block, enrolled, rel, length, needed)
        assert compute_span(data, enrolled.tolist(), rel, needed) == expected


@pytest.mark.parametrize("seed", range(8))
def test_comm_phase_span_variants_agree_with_brute_force(seed):
    rng = np.random.default_rng(300 + seed)
    block = np.ascontiguousarray(random_block(rng, num_workers=6, length=200))
    length = block.shape[1]
    for _ in range(15):
        size = int(rng.integers(1, 5))
        enrolled = np.sort(rng.choice(6, size=size, replace=False)).astype(np.int64)
        rel = int(rng.integers(0, length))
        # The engine only calls this on a column without enrolled failures.
        block[enrolled, rel] = np.where(
            block[enrolled, rel] == DOWN, UP, block[enrolled, rel]
        )
        needs = rng.integers(0, 6, size=size).astype(np.int64)
        if not needs.any():
            needs[0] = 1
        check_comm_phase(block, enrolled, needs, rel)


def state_block(rows):
    """An ``int8`` block from per-worker lists of ``(state, run length)``."""
    return np.ascontiguousarray(
        [[state for state, run in row for _ in range(run)] for row in rows],
        dtype=np.int8,
    )


@st.composite
def scan_cases(draw, *, max_length, max_run, min_enrolled):
    """``(block, enrolled, rel)``: a block of runs of equal states, a sorted
    enrolled subset and a start column, biased towards the last column."""
    num_workers = draw(st.integers(1, 6))
    length = draw(st.integers(1, max_length))
    states = st.sampled_from([UP, UP, RECLAIMED, DOWN])
    rows = []
    for _ in range(num_workers):
        row, filled = [], 0
        while filled < length:
            run = min(draw(st.integers(1, max_run)), length - filled)
            row.append((draw(states), run))
            filled += run
        rows.append(row)
    enrolled = draw(
        st.lists(
            st.integers(0, num_workers - 1),
            min_size=min(min_enrolled, num_workers),
            max_size=num_workers,
            unique=True,
        )
    )
    rel = draw(st.one_of(st.just(length - 1), st.integers(0, length - 1)))
    return state_block(rows), np.array(sorted(enrolled), dtype=np.int64), rel


def int64s(*values):
    return np.array(values, dtype=np.int64)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scan_cases(max_length=60, max_run=8, min_enrolled=0))
@example((state_block([[(UP, 1)]]), int64s(), 0))
@example((state_block([[(UP, 1)], [(DOWN, 1)]]), int64s(0, 1), 0))
@example((state_block([[(UP, 3), (DOWN, 2)], [(RECLAIMED, 5)]]), int64s(), 4))
@example((state_block([[(UP, 3), (DOWN, 2)], [(RECLAIMED, 5)]]), int64s(), 1))
@example((state_block([[(UP, 3), (DOWN, 2)], [(RECLAIMED, 5)]]), int64s(0, 1), 4))
def test_frozen_span_matches_brute_force(case):
    block, ids, rel = case
    data = BlockData(block, None)
    assert frozen_span(data, ids.tolist(), rel) == brute_frozen_span(block, ids, rel)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    scan_cases(max_length=1100, max_run=300, min_enrolled=1),
    st.one_of(st.integers(-1, 8), st.integers(9, 1000)),
)
@example((state_block([[(UP, 1)]]), int64s(0), 0), 1)
@example((state_block([[(UP, 6)]]), int64s(0), 0), 0)
@example((state_block([[(UP, 6)]]), int64s(0), 0), -1)
@example((state_block([[(UP, 1), (RECLAIMED, 3), (UP, 2)]]), int64s(0), 0), 0)
@example((state_block([[(UP, 6)]]), int64s(0), 5), 3)
@example((state_block([[(UP, 1100)]]), int64s(0), 0), 1000)
@example((state_block([[(UP, 700)], [(RECLAIMED, 3), (UP, 697)]]), int64s(0, 1), 0), 600)
@example((state_block([[(RECLAIMED, 600), (DOWN, 100)]]), int64s(0), 2), 5)
def test_compute_span_matches_brute_force(case, needed):
    block, ids, rel = case
    length = block.shape[1]
    expected = brute_compute_span(block, ids, rel, length, needed)
    assert compute_span(BlockData(block, None), ids.tolist(), rel, needed) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scan_cases(max_length=80, max_run=12, min_enrolled=0).map(itemgetter(0)))
@example(state_block([[(UP, 1)], [(DOWN, 1)], [(RECLAIMED, 1)]]))
@example(state_block([[(DOWN, 7)], [(UP, 2), (DOWN, 5)]]))
@example(state_block([[(RECLAIMED, 2), (UP, 3), (DOWN, 1), (UP, 2)]]))
@example(state_block([[(DOWN, 1)]]))
def test_block_data_events_match_brute_force_property(block):
    data = BlockData(block, None)
    for q in range(block.shape[0]):
        assert as_lists(data.events(q)) == brute_events(block, q)


@st.composite
def phase_cases(draw):
    """A scan case plus per-worker units still needed, ``needs``: general,
    or zero for every worker but one."""
    block, ids, rel = draw(scan_cases(max_length=300, max_run=40, min_enrolled=1))
    # The engine only calls this on a column without enrolled failures.
    block[ids, rel] = np.where(block[ids, rel] == DOWN, UP, block[ids, rel])
    if draw(st.booleans()):
        needs = np.zeros(ids.size, dtype=np.int64)
        needs[draw(st.integers(0, ids.size - 1))] = draw(st.integers(1, 40))
    else:
        units = st.lists(st.integers(0, 40), min_size=ids.size, max_size=ids.size)
        needs = np.array(draw(units), dtype=np.int64)
        if not needs.any():
            needs[0] = 1
    return block, ids, rel, needs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(phase_cases())
@example((state_block([[(UP, 1)]]), int64s(0), 0, int64s(1)))
@example((state_block([[(RECLAIMED, 1)]]), int64s(0), 0, int64s(1)))
@example((state_block([[(UP, 5)], [(RECLAIMED, 5)]]), int64s(0, 1), 4, int64s(0, 2)))
@example((state_block([[(UP, 300)], [(UP, 300)]]), int64s(0, 1), 0, int64s(0, 250)))
@example((state_block([[(UP, 3)], [(RECLAIMED, 3)]]), int64s(0, 1), 0, int64s(3, 1)))
@example((state_block([[(UP, 9), (DOWN, 1)], [(UP, 10)]]), int64s(0, 1), 0, int64s(0, 20)))
# A jump cut short by DOWN after a RECLAIMED column: no channel on the last one.
@example((state_block([[(UP, 2), (RECLAIMED, 1), (DOWN, 1)]]), int64s(0), 0, int64s(5)))
def test_comm_phase_span_matches_brute_force(case):
    block, ids, rel, needs = case
    check_comm_phase(block, ids, needs, rel)


def test_block_data_builds_events_once_per_read_worker():
    rng = np.random.default_rng(9)
    block = random_block(rng, num_workers=3, length=20)
    data = BlockData(block, None)
    assert data.length == 20
    assert data._events == [None, None, None]
    lists = data.events(1)
    assert data.events(1) is lists
    # Only the worker that was read has lists; a scan reads only its workers.
    assert data._events == [None, lists, None]
    frozen_span(data, [2], 0)
    assert data._events[0] is None and data._events[1] is lists
    assert as_lists(data._events[2]) == brute_events(block, 2)
