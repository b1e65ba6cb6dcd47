"""Tests for the per-worker runtime state."""

import dataclasses

import pytest

from repro.simulation.state import WorkerRuntime


class TestQueries:
    def test_record_keeps_no_availability_state(self):
        # A worker's state is read from the slot's column, never stored.
        assert [field.name for field in dataclasses.fields(WorkerRuntime)] == [
            "worker_id",
            "enrolled",
            "assigned_tasks",
            "has_program",
            "program_progress",
            "data_received",
            "data_progress",
        ]

    def test_comm_slots_remaining_fresh_worker(self):
        runtime = WorkerRuntime(worker_id=0)
        runtime.on_enroll(3)
        assert runtime.comm_slots_remaining(4, 0) == 4  # the program alone
        assert runtime.comm_slots_remaining(0, 2) == 6  # the data alone
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
        progress = []
        for _ in range(4):
            runtime.advance_communication(1, 2, 2)
            progress.append(
                (runtime.has_program, runtime.program_progress,
                 runtime.data_received, runtime.data_progress)
            )
        assert progress == [
            (False, 1, 0, 0), (True, 0, 0, 0), (True, 0, 0, 1), (True, 0, 1, 0)
        ]
        assert runtime.comm_slots_remaining(2, 2) == 0

    def test_partial_data_progress(self):
        runtime = WorkerRuntime(worker_id=0, has_program=True)
        runtime.on_enroll(2)
        runtime.advance_communication(1, 0, 3)
        assert runtime.data_progress == 1
        assert runtime.data_received == 0
        assert runtime.comm_slots_remaining(0, 3) == 5

    def test_batched_slots_cross_program_and_data(self):
        runtime = WorkerRuntime(worker_id=0)
        runtime.on_enroll(3)
        runtime.program_progress = 1
        runtime.advance_communication(6, 3, 2)  # 2 program slots, then 4 data
        assert runtime.has_program and runtime.program_progress == 0
        assert (runtime.data_received, runtime.data_progress) == (2, 0)
        assert runtime.comm_slots_remaining(3, 2) == 2

    def test_no_slots_change_nothing(self):
        runtime = WorkerRuntime(worker_id=0)
        runtime.on_enroll(1)
        before = dataclasses.replace(runtime)
        runtime.advance_communication(0, 2, 1)
        assert runtime == before

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
