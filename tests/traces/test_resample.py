"""Tests for bootstrap resampling and fit-then-sample generation."""

import numpy as np
import pytest

from repro.availability.trace import AvailabilityTrace, TraceAvailabilityModel
from repro.traces.resample import (
    TraceResampleError,
    block_bootstrap_row,
    bootstrap_models,
    bootstrap_rows,
    bootstrap_trace,
    fitted_trace,
)

TRACE = AvailabilityTrace(["uuuurrdd", "rrrrrrrr", "dddduuuu"])


class TestBootstrapRows:
    def test_rows_come_from_recording(self):
        rows = bootstrap_rows(TRACE, 10, np.random.default_rng(1))
        recorded = {TRACE.row(index).tobytes() for index in range(3)}
        assert len(rows) == 10
        assert all(row.tobytes() in recorded for row in rows)

    def test_deterministic_in_rng(self):
        first = bootstrap_rows(TRACE, 5, np.random.default_rng(7))
        second = bootstrap_rows(TRACE, 5, np.random.default_rng(7))
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_negative_count_rejected(self):
        with pytest.raises(TraceResampleError):
            bootstrap_rows(TRACE, -1, np.random.default_rng(0))


class TestBlockBootstrap:
    def test_length_and_alphabet(self):
        row = block_bootstrap_row(TRACE, 50, np.random.default_rng(2), block_length=4)
        assert row.size == 50
        assert set(np.unique(row)) <= {0, 1, 2}

    def test_blocks_are_recorded_subsequences(self):
        rng = np.random.default_rng(3)
        row = block_bootstrap_row(TRACE, 40, rng, block_length=4)
        haystacks = TRACE.to_strings()
        chars = np.array(["u", "r", "d"])
        for start in range(0, 40, 4):
            needle = "".join(chars[row[start: start + 4]])
            assert any(needle in haystack for haystack in haystacks)

    def test_block_longer_than_recording_is_clamped(self):
        row = block_bootstrap_row(TRACE, 20, np.random.default_rng(4), block_length=1000)
        assert row.size == 20

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TraceResampleError):
            block_bootstrap_row(TRACE, 0, rng, block_length=4)
        with pytest.raises(TraceResampleError):
            block_bootstrap_row(TRACE, 10, rng, block_length=0)


def replays(model, row):
    """Whether *model* replays *row*, wrapping round once it runs out."""
    return np.array_equal(model.sample_trajectory(2 * len(row), seed=0), np.tile(row, 2))


class TestBootstrapModels:
    def test_row_bootstrap_models(self):
        models = bootstrap_models(TRACE, np.random.default_rng(5), 4)
        rows = bootstrap_rows(TRACE, 4, np.random.default_rng(5))
        assert len(models) == 4
        assert all(isinstance(model, TraceAvailabilityModel) for model in models)
        assert all(replays(model, row) for model, row in zip(models, rows))

    def test_block_bootstrap_models_custom_horizon(self):
        models = bootstrap_models(
            TRACE, np.random.default_rng(6), 3, block_length=4, horizon=30
        )
        rng = np.random.default_rng(6)
        rows = [block_bootstrap_row(TRACE, 30, rng, block_length=4) for _ in range(3)]
        assert all(replays(model, row) for model, row in zip(models, rows))


class TestBootstrapTrace:
    def test_shape_and_determinism(self):
        first = bootstrap_trace(TRACE, 6, seed=11, block_length=3, horizon=25)
        second = bootstrap_trace(TRACE, 6, seed=11, block_length=3, horizon=25)
        assert first == second
        assert first.num_processors == 6 and first.horizon == 25

    def test_row_bootstrap_cannot_extend(self):
        with pytest.raises(TraceResampleError, match="extend"):
            bootstrap_trace(TRACE, 2, seed=0, horizon=100)

    def test_row_bootstrap_truncates(self):
        resampled = bootstrap_trace(TRACE, 2, seed=0, horizon=4)
        assert resampled.horizon == 4


class TestFittedTrace:
    def test_kinds_and_determinism(self):
        rng = np.random.default_rng(8)
        rows = np.vstack([
            np.array([0, 0, 0, 1, 0, 0, 2, 0] * 100),
            rng.integers(0, 3, size=800),
        ]).astype(np.int8)
        recording = AvailabilityTrace(rows)
        for kind in ("markov", "semi-markov"):
            first = fitted_trace(kind, recording, 3, 60, seed=9)
            second = fitted_trace(kind, recording, 3, 60, seed=9)
            assert first == second
            assert first.num_processors == 3 and first.horizon == 60
        diurnal = fitted_trace("diurnal", recording, 2, 50, seed=9, day_length=8)
        assert diurnal.num_processors == 2 and diurnal.horizon == 50
