"""Tests for availability traces and trace-replay models."""

import numpy as np
import pytest

from repro.availability.markov import MarkovAvailabilityModel
from repro.availability.trace import AvailabilityTrace, TraceAvailabilityModel
from repro.exceptions import InvalidModelError
from repro.types import DOWN, RECLAIMED, UP


class TestAvailabilityTrace:
    def test_from_strings(self):
        trace = AvailabilityTrace(["uurd", "dddd", "uuuu"])
        assert trace.num_processors == 3
        assert trace.horizon == 4
        assert trace.state(0, 2) == RECLAIMED
        assert trace.state(1, 0) == DOWN

    def test_from_numpy(self):
        states = np.array([[0, 1, 2], [2, 0, 0]], dtype=np.int8)
        trace = AvailabilityTrace(states)
        assert trace.state(1, 1) == UP

    def test_rejects_ragged_rows(self):
        with pytest.raises(InvalidModelError):
            AvailabilityTrace(["uu", "u"])

    def test_rejects_empty(self):
        with pytest.raises(InvalidModelError):
            AvailabilityTrace([])

    def test_rejects_bad_codes(self):
        with pytest.raises(InvalidModelError):
            AvailabilityTrace(np.array([[0, 5]], dtype=np.int8))

    def test_rejects_bad_char(self):
        with pytest.raises(ValueError):
            AvailabilityTrace(["ux"])

    def test_up_matrix(self):
        trace = AvailabilityTrace(["ud", "uu"])
        up = trace.up_matrix()
        assert up.tolist() == [[True, False], [True, True]]

    def test_round_trip_strings_and_dict(self):
        trace = AvailabilityTrace(["urdu", "dduu"])
        assert AvailabilityTrace(trace.to_strings()) == trace
        assert AvailabilityTrace.from_dict(trace.to_dict()) == trace

    def test_row_returns_copy(self):
        trace = AvailabilityTrace(["uu"])
        row = trace.row(0)
        row[0] = 2
        assert trace.state(0, 0) == UP

    def test_from_models_deterministic(self):
        models = [MarkovAvailabilityModel.always_up() for _ in range(3)]
        trace = AvailabilityTrace.from_models(models, horizon=10, seed=1)
        assert trace.num_processors == 3
        assert trace.horizon == 10
        assert np.all(trace.states == int(UP))

    def test_equality(self):
        assert AvailabilityTrace(["ud"]) == AvailabilityTrace(["ud"])
        assert AvailabilityTrace(["ud"]) != AvailabilityTrace(["uu"])

    def test_not_equal_across_shapes_or_types(self):
        assert AvailabilityTrace(["ud"]) != AvailabilityTrace(["ud", "ud"])
        assert AvailabilityTrace(["ud"]).__eq__(["ud"]) is NotImplemented

    def test_block_returns_requested_slice(self):
        trace = AvailabilityTrace(["urdu", "dduu"])
        assert AvailabilityTrace(trace.block(1, 3)).to_strings() == ["rd", "du"]
        assert trace.block(2, 2).shape == (2, 0)

    def test_block_is_a_copy(self):
        trace = AvailabilityTrace(["uu"])
        trace.block(0, 2)[0, 0] = 2
        assert trace.state(0, 0) == UP

    @pytest.mark.parametrize("start, stop", [(-1, 1), (2, 1), (0, 5)])
    def test_block_rejects_out_of_range(self, start, stop):
        with pytest.raises(ValueError):
            AvailabilityTrace(["uuuu"]).block(start, stop)

    def test_states_is_a_copy(self):
        trace = AvailabilityTrace(["uu"])
        trace.states[0, 1] = 2
        assert trace.state(0, 1) == UP

    def test_from_dict_rejects_other_types(self):
        with pytest.raises(InvalidModelError):
            AvailabilityTrace.from_dict({"type": "markov", "rows": ["uu"]})


class TestTraceAvailabilityModel:
    def test_replays_sequence(self):
        model = TraceAvailabilityModel("urdu")
        rng = np.random.default_rng(0)
        states = [model.initial_state(rng)]
        for _ in range(3):
            states.append(model.next_state(states[-1], rng))
        assert [s.char for s in states] == ["u", "r", "d", "u"]

    def test_wrap_around(self):
        model = TraceAvailabilityModel("ur", wrap=True)
        seq = model.sample_trajectory(6, seed=0)
        assert seq.tolist() == [0, 1, 0, 1, 0, 1]

    def test_no_wrap_repeats_last(self):
        model = TraceAvailabilityModel("ud", wrap=False)
        seq = model.sample_trajectory(5, seed=0)
        assert seq.tolist() == [0, 2, 2, 2, 2]

    def test_empty_rejected(self):
        with pytest.raises(InvalidModelError):
            TraceAvailabilityModel("")

    def test_markov_approximation_is_stochastic(self):
        model = TraceAvailabilityModel("uuurrdduu")
        matrix = model.markov_approximation()
        assert matrix.shape == (3, 3)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_describe_mentions_up_fraction(self):
        assert "up_fraction" in TraceAvailabilityModel("uu").describe()

    def test_reset_restarts_replay(self):
        model = TraceAvailabilityModel("urd")
        rng = np.random.default_rng(0)
        state = model.initial_state(rng)
        state = model.next_state(state, rng)
        state = model.next_state(state, rng)
        assert state == DOWN
        model.reset()
        assert model.next_state(state, rng) == RECLAIMED

    def test_markov_approximation_is_a_copy(self):
        model = TraceAvailabilityModel("uuurrdduu")
        first = model.markov_approximation()
        first[:] = 0.0
        assert np.allclose(model.markov_approximation().sum(axis=1), 1.0)
