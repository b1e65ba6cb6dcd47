"""The Markov sampler's identity interval against the full transition maps.

:meth:`MarkovAvailabilityModel.sample_block` builds maps only for the draws
its ``_moving_slots`` finds outside
:func:`~repro.availability.markov._identity_interval`.  The reference is
the map every draw defines on the cumulative rows, packed into its 27-code
form: a slot moves a state exactly when its code is not the identity.
Hypothesis draws transition matrices with zero entries (so rows share
thresholds and stay probabilities can vanish) and draws placed exactly on
every threshold and next to it; explicit cases pin ``always_up``,
a two-state UP/DOWN chain, an absorbing DOWN state and zero stay probabilities.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability.markov import MarkovAvailabilityModel, _identity_interval
from repro.availability.model import _IDENTITY, scan_transition_maps


def map_codes(cumulative, draws):
    """The 27-code map of each draw, built from the full ``(L, 3)`` maps."""
    column = np.asarray(draws, dtype=float)[:, None]
    maps = (column >= cumulative[None, :, 0]).astype(np.int8)
    maps += column >= cumulative[None, :, 1]
    return maps[:, 0] + 3 * maps[:, 1] + 9 * maps[:, 2]


def threshold_draws(cumulative):
    """Every threshold in [0, 1) and its two neighbouring floats."""
    points = []
    for value in cumulative[:, :2].ravel().tolist():
        points += [value, np.nextafter(value, 0.0), np.nextafter(value, 1.0)]
    return [point for point in points if 0.0 <= point < 1.0]


def check(model, extra_draws=()):
    cumulative = model._cumulative
    rng = np.random.default_rng(0)
    draws = np.concatenate(
        [rng.random(200), threshold_draws(cumulative), np.asarray(extra_draws, dtype=float)]
    )
    assert model._still == _identity_interval(cumulative)
    moving = model._moving_slots(draws)
    assert np.array_equal(moving, np.flatnonzero(map_codes(cumulative, draws) != _IDENTITY))


def reference_block(model, horizon, seed, current):
    """The trajectory through the full maps, on the draws sample_block takes."""
    draws = np.random.default_rng(seed).random(horizon)[:, None]
    maps = (draws >= model._cumulative[None, :, 0]).astype(np.int8)
    maps += draws >= model._cumulative[None, :, 1]
    return scan_transition_maps(maps, current)


def check_block(model):
    for current in range(3):
        for horizon in (1, 5, 300):
            sampled = model.sample_block(1, horizon, np.random.default_rng(9), current=current)
            assert np.array_equal(sampled, reference_block(model, horizon, 9, current))


row_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_subnormal=False)), min_size=3, max_size=3
).filter(lambda row: sum(row) > 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(row_weights, min_size=3, max_size=3),
    st.lists(st.floats(0.0, 1.0, exclude_max=True)),
)
def test_interval_matches_map_codes(rows, extra_draws):
    matrix = np.array(rows, dtype=float)
    matrix /= matrix.sum(axis=1, keepdims=True)
    model = MarkovAvailabilityModel(matrix, down_recoverable=False)
    check(model, extra_draws)


def test_always_up_never_moves():
    model = MarkovAvailabilityModel.always_up()
    check(model)
    low, high = model._still
    assert low <= 0.0 and high >= 1.0  # every draw is the identity
    check_block(model)


def test_two_state():
    # UP/DOWN only: RECLAIMED is never entered from UP or DOWN.
    matrix = np.array([[0.9, 0.0, 0.1], [0.0, 1.0, 0.0], [0.3, 0.0, 0.7]])
    model = MarkovAvailabilityModel(matrix, initial_distribution=np.array([1.0, 0.0, 0.0]))
    check(model)
    check_block(model)


def test_absorbing_down():
    matrix = np.array([[0.8, 0.1, 0.1], [0.3, 0.6, 0.1], [0.0, 0.0, 1.0]])
    model = MarkovAvailabilityModel(matrix, down_recoverable=False)
    check(model)
    check_block(model)


def test_zero_stay_probabilities_move_every_slot():
    matrix = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    model = MarkovAvailabilityModel(matrix)
    check(model)
    low, high = model._still
    assert low >= high  # empty interval
    check_block(model)


def test_paper_rows():
    # Slowly mixing rows like the paper's: most slots are the identity.
    matrix = np.array([[0.97, 0.02, 0.01], [0.05, 0.94, 0.01], [0.04, 0.0, 0.96]])
    model = MarkovAvailabilityModel(matrix)
    check(model)
    check_block(model)
