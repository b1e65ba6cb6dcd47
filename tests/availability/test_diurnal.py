"""Tests for the diurnal (time-of-day dependent) availability model."""

import numpy as np
import pytest

from repro.availability.diurnal import DiurnalAvailabilityModel, DiurnalPhase
from repro.exceptions import InvalidModelError
from repro.types import UP


def two_phase_model(offset=0):
    stable = np.array([[0.99, 0.01, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]])
    volatile = np.array([[0.5, 0.4, 0.1], [0.2, 0.7, 0.1], [0.3, 0.1, 0.6]])
    return DiurnalAvailabilityModel(
        [DiurnalPhase("night", 10, stable), DiurnalPhase("office", 10, volatile)],
        phase_offset=offset,
    )


class TestDiurnalPhase:
    def test_invalid_duration(self):
        with pytest.raises(InvalidModelError):
            DiurnalPhase("x", 0, np.eye(3))

    def test_invalid_matrix(self):
        with pytest.raises(ValueError):
            DiurnalPhase("x", 5, np.ones((3, 3)))


class TestDiurnalModel:
    def test_phases(self):
        model = two_phase_model()
        assert [phase.duration for phase in model.phases] == [10, 10]

    def test_phase_lookup_respects_offset(self):
        model = two_phase_model(offset=10)
        assert model.phase_at(0).name == "office"
        assert model.phase_at(10).name == "night"
        assert model.phase_at(25).name == "office"

    def test_empty_phases_rejected(self):
        with pytest.raises(InvalidModelError):
            DiurnalAvailabilityModel([])

    def test_negative_offset_rejected(self):
        with pytest.raises(InvalidModelError):
            two_phase_model(offset=-1)

    def test_markov_approximation_is_weighted_average(self):
        model = two_phase_model()
        approx = model.markov_approximation()
        expected = 0.5 * model.phases[0].matrix + 0.5 * model.phases[1].matrix
        assert np.allclose(approx, expected)
        assert np.allclose(approx.sum(axis=1), 1.0)

    def test_trajectory_values_valid(self):
        model = two_phase_model()
        trajectory = model.sample_trajectory(500, seed=3)
        assert set(np.unique(trajectory)).issubset({0, 1, 2})

    def test_night_phase_is_more_available_than_office_phase(self):
        model = DiurnalAvailabilityModel.office_hours(day_length=40, office_fraction=0.5)
        # Sample many days and compare UP fraction during the two halves.
        trajectory = model.sample_trajectory(40 * 200, seed=9)
        per_slot = trajectory.reshape(-1, 40)
        office_up = np.mean(per_slot[:, :20] == int(UP))
        night_up = np.mean(per_slot[:, 20:] == int(UP))
        assert night_up > office_up

    def test_office_hours_invalid_fraction(self):
        with pytest.raises(InvalidModelError):
            DiurnalAvailabilityModel.office_hours(office_fraction=1.5)

    def test_reset_restarts_cycle(self):
        model = two_phase_model()
        first = model.sample_trajectory(30, seed=4)
        second = model.sample_trajectory(30, seed=4)
        assert np.array_equal(first, second)

    def test_describe(self):
        assert "Diurnal" in two_phase_model().describe()

    def test_usable_in_simulation(self):
        from repro.application import Application
        from repro.platform import Platform, Processor
        from repro.scheduling import create_scheduler
        from repro.simulation import simulate

        processors = [
            Processor(
                speed=1, capacity=3,
                availability=DiurnalAvailabilityModel.office_hours(
                    day_length=48, phase_offset=offset
                ),
            )
            for offset in (0, 12, 24, 36)
        ]
        platform = Platform(processors, ncom=2, tprog=1, tdata=1)
        application = Application(tasks_per_iteration=3, iterations=2)
        result = simulate(platform, application, create_scheduler("IE"), seed=1,
                          max_slots=20_000)
        assert result.completed_iterations >= 1
