"""Tests for the per-worker runtime state."""

import pytest

from repro.simulation.state import WorkerRuntime
from repro.types import DOWN, RECLAIMED, UP


class TestQueries:
    def test_state_predicates(self):
        runtime = WorkerRuntime(worker_id=0, state=UP)
        assert runtime.is_up() and not runtime.is_down()
        runtime.state = RECLAIMED
        assert not runtime.is_up() and not runtime.is_down()
        runtime.state = DOWN
        assert runtime.is_down()

    def test_comm_slots_remaining_fresh_worker(self):
        runtime = WorkerRuntime(worker_id=0)
        runtime.on_enroll(3)
        assert runtime.program_slots_remaining(tprog=4) == 4
        assert runtime.data_slots_remaining(tdata=2) == 6
        assert runtime.comm_slots_remaining(4, 2) == 10

    def test_comm_slots_with_program(self):
        runtime = WorkerRuntime(worker_id=0, has_program=True)
        runtime.on_enroll(2)
        assert runtime.has_program  # enrolment keeps a complete program copy
        assert runtime.comm_slots_remaining(4, 2) == 4


class TestTransitions:
    def test_on_down_clears_everything(self):
        runtime = WorkerRuntime(worker_id=1, has_program=True)
        runtime.on_enroll(2)
        runtime.data_received = 1
        runtime.on_down()
        assert not runtime.has_program
        assert not runtime.enrolled
        assert runtime.assigned_tasks == 0
        assert runtime.data_received == 0

    def test_on_unenroll_keeps_program_loses_data(self):
        runtime = WorkerRuntime(worker_id=1, has_program=True)
        runtime.on_enroll(2)
        runtime.data_received = 2
        runtime.program_progress = 0
        runtime.on_unenroll()
        assert runtime.has_program
        assert runtime.data_received == 0
        assert not runtime.enrolled

    def test_on_unenroll_discards_partial_program(self):
        runtime = WorkerRuntime(worker_id=1)
        runtime.on_enroll(1)
        runtime.program_progress = 3
        runtime.on_unenroll()
        assert runtime.program_progress == 0
        assert not runtime.has_program

    def test_on_enroll_discards_old_data(self):
        runtime = WorkerRuntime(worker_id=1, has_program=True)
        runtime.data_received = 3
        runtime.on_enroll(2)
        assert runtime.data_received == 0
        assert runtime.assigned_tasks == 2

    def test_on_enroll_invalid(self):
        with pytest.raises(ValueError):
            WorkerRuntime(worker_id=0).on_enroll(0)

    def test_on_reassign_caps_reusable_data(self):
        runtime = WorkerRuntime(worker_id=2, has_program=True)
        runtime.on_enroll(4)
        runtime.data_received = 3
        runtime.on_reassign(2)
        assert runtime.assigned_tasks == 2
        assert runtime.data_received == 2

    def test_on_reassign_keeps_data_when_growing(self):
        runtime = WorkerRuntime(worker_id=2)
        runtime.on_enroll(1)
        runtime.data_received = 1
        runtime.on_reassign(3)
        assert runtime.data_received == 1
        assert runtime.assigned_tasks == 3

    def test_on_reassign_invalid(self):
        with pytest.raises(ValueError):
            WorkerRuntime(worker_id=0).on_reassign(0)

    def test_on_new_iteration_resets_data_only(self):
        runtime = WorkerRuntime(worker_id=0, has_program=True)
        runtime.on_enroll(2)
        runtime.data_received = 2
        runtime.on_new_iteration()
        assert runtime.data_received == 0
        assert runtime.has_program
        assert runtime.enrolled


class TestCommunicationProgress:
    def test_program_then_data(self):
        runtime = WorkerRuntime(worker_id=0)
        runtime.on_enroll(1)
        kinds = [runtime.receive_communication_slot(2, 2) for _ in range(4)]
        assert kinds == ["program", "program", "data", "data"]
        assert runtime.has_program
        assert runtime.data_received == 1
        assert runtime.comm_slots_remaining(2, 2) == 0

    def test_partial_data_progress(self):
        runtime = WorkerRuntime(worker_id=0, has_program=True)
        runtime.on_enroll(2)
        runtime.receive_communication_slot(0, 3)
        assert runtime.data_progress == 1
        assert runtime.data_received == 0
        assert runtime.data_slots_remaining(3) == 5

    def test_slot_granted_with_nothing_needed_raises(self):
        runtime = WorkerRuntime(worker_id=0, has_program=True)
        runtime.on_enroll(1)
        runtime.data_received = 1
        with pytest.raises(RuntimeError):
            runtime.receive_communication_slot(2, 1)

    def test_absorb_free_transfers(self):
        runtime = WorkerRuntime(worker_id=0)
        runtime.on_enroll(3)
        runtime.absorb_free_transfers(tprog=0, tdata=0)
        assert runtime.has_program
        assert runtime.data_received == 3
        assert runtime.comm_slots_remaining(0, 0) == 0

    def test_absorb_free_transfers_only_when_zero_cost(self):
        runtime = WorkerRuntime(worker_id=0)
        runtime.on_enroll(3)
        runtime.absorb_free_transfers(tprog=2, tdata=1)
        assert not runtime.has_program
        assert runtime.data_received == 0

    def test_absorb_free_transfers_ignores_unenrolled(self):
        runtime = WorkerRuntime(worker_id=0)
        runtime.absorb_free_transfers(tprog=0, tdata=0)
        assert not runtime.has_program
