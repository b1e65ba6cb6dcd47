"""Oracle tests of :func:`repro.availability.model.scan_transition_maps`.

The scan composes only the slots whose map is not the identity and
forward-fills the rest; the reference is the plain slot loop
``state = _DECODE[code, state]``.  Hypothesis draws code sequences biased
towards the identity (as a slowly mixing chain produces them); explicit
cases pin all-identity and identity-free sequences, horizons 0 and 1, and
more non-identity slots than one scan chunk holds, so the carried state
between chunks is exercised.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.availability.model import _DECODE, _IDENTITY, _SCAN_CHUNK, scan_transition_maps


def loop_trajectory(codes, current):
    states = []
    state = current
    for code in codes:
        state = int(_DECODE[code, state])
        states.append(state)
    return np.array(states, dtype=np.int8)


def check(codes, current):
    codes = np.asarray(codes, dtype=np.intp)
    states = scan_transition_maps(_DECODE[codes], current)
    assert states.dtype == np.int8
    assert np.array_equal(states, loop_trajectory(codes, current))


mostly_identity = st.lists(
    st.one_of(st.just(_IDENTITY), st.just(_IDENTITY), st.just(_IDENTITY), st.integers(0, 26)),
    max_size=300,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mostly_identity, st.integers(0, 2))
@example([], 0)
@example([_IDENTITY], 2)
@example([0], 1)
@example([_IDENTITY] * 50, 1)
@example(list(range(27)), 2)
def test_scan_matches_slot_loop(codes, current):
    check(codes, current)


def test_all_identity_keeps_the_initial_state():
    for current in range(3):
        assert (scan_transition_maps(_DECODE[np.full(1000, _IDENTITY)], current) == current).all()


def test_no_identity_slot():
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 26, size=600)
    codes[codes == _IDENTITY] = 26
    for current in range(3):
        check(codes, current)


def test_carry_between_chunks():
    # More than three chunks of non-identity slots, interleaved with
    # identity runs, so every chunk starts from the previous chunk's state.
    rng = np.random.default_rng(4)
    codes = np.full(5 * _SCAN_CHUNK, _IDENTITY)
    moving = rng.choice(codes.size, size=3 * _SCAN_CHUNK + 17, replace=False)
    codes[moving] = rng.choice([c for c in range(27) if c != _IDENTITY], size=moving.size)
    for current in range(3):
        check(codes, current)
