"""Tests for simulation results and iteration records."""

import pytest

from repro.simulation.results import IterationRecord, SimulationResult


class TestIterationRecord:
    def test_duration(self):
        record = IterationRecord(index=0, start_slot=5, end_slot=12)
        assert record.completed
        assert record.duration == 8

    def test_unfinished(self):
        record = IterationRecord(index=1, start_slot=3)
        assert not record.completed
        assert record.duration is None


def make_result(success=True, makespan=120):
    return SimulationResult(
        scheduler="IE",
        success=success,
        makespan=makespan if success else None,
        completed_iterations=10 if success else 4,
        requested_iterations=10,
        max_slots=1000,
        iterations=[
            IterationRecord(index=0, start_slot=0, end_slot=50),
            IterationRecord(index=1, start_slot=51, end_slot=119),
        ],
        total_restarts=3,
        total_configuration_changes=5,
        communication_slots=40,
        computation_slots=60,
        idle_slots=20,
    )


class TestSimulationResult:
    def test_effective_makespan_success(self):
        assert make_result().effective_makespan() == 120

    def test_effective_makespan_failure_uses_cap(self):
        result = make_result(success=False)
        assert result.effective_makespan() == 1000
        assert result.effective_makespan(penalty=9999) == 9999

    def test_mean_iteration_duration(self):
        result = make_result()
        assert result.mean_iteration_duration() == pytest.approx((51 + 69) / 2)

    def test_mean_iteration_duration_none_when_no_completed(self):
        result = SimulationResult(
            scheduler="IE", success=False, makespan=None, completed_iterations=0,
            requested_iterations=10, max_slots=100,
            iterations=[IterationRecord(index=0, start_slot=0)],
        )
        assert result.mean_iteration_duration() is None

    def test_describe(self):
        assert "IE" in make_result().describe()
        assert "FAILED" in make_result(success=False).describe()
