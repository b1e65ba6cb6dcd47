"""Tests for the bounded multi-port communication manager."""

import pytest

from repro.simulation.comm import CommunicationManager
from repro.simulation.state import WorkerRuntime
from repro.types import DOWN, RECLAIMED, UP


def make_runtime(worker_id, tasks=1, state=UP, has_program=False):
    runtime = WorkerRuntime(worker_id=worker_id, state=state, has_program=has_program)
    runtime.on_enroll(tasks)
    return runtime


def step(manager, runtimes, *, tprog, tdata, remaining=None):
    """One communication slot: the granted worker ids, ascending."""
    if remaining is None:
        remaining = [runtime.comm_slots_remaining(tprog, tdata) for runtime in runtimes]
    served = {}
    manager.step(runtimes, remaining, tprog=tprog, tdata=tdata, served=served)
    return sorted(served)


class TestAllocate:
    def test_respects_ncom(self):
        manager = CommunicationManager(2)
        runtimes = [make_runtime(i) for i in range(4)]
        assert step(manager, runtimes, tprog=2, tdata=1) == [0, 1]

    def test_skips_non_up_workers(self):
        manager = CommunicationManager(3)
        runtimes = [
            make_runtime(0, state=UP),
            make_runtime(1, state=RECLAIMED),
            make_runtime(2, state=DOWN),
            make_runtime(3, state=UP),
        ]
        assert step(manager, runtimes, tprog=1, tdata=1) == [0, 3]

    def test_skips_workers_without_needs(self):
        manager = CommunicationManager(4)
        done = make_runtime(0, has_program=True)
        done.data_received = done.assigned_tasks
        pending = make_runtime(1)
        assert step(manager, [done, pending], tprog=2, tdata=1) == [1]

    def test_trusts_the_callers_remaining(self):
        # The remaining list is the engine's; a worker it reports as done
        # gets no channel, whatever its record says.
        manager = CommunicationManager(2)
        runtimes = [make_runtime(0), make_runtime(1)]
        assert step(manager, runtimes, tprog=1, tdata=1, remaining=[0, 2]) == [1]

    def test_sticky_channels(self):
        manager = CommunicationManager(2)
        runtimes = [make_runtime(i, tasks=2) for i in range(3)]
        assert step(manager, runtimes, tprog=2, tdata=1) == [0, 1]
        # Worker 0 finishes all its communication; worker 2 should get the free
        # channel while worker 1 keeps its own (stickiness).
        runtimes[0].has_program = True
        runtimes[0].data_received = 2
        assert step(manager, runtimes, tprog=2, tdata=1) == [1, 2]

    def test_sticky_holder_keeps_its_channel_over_a_lower_id(self):
        manager = CommunicationManager(1)
        runtimes = [make_runtime(0, tasks=2), make_runtime(1, tasks=2)]
        assert step(manager, runtimes, tprog=1, tdata=1, remaining=[0, 3]) == [1]
        assert step(manager, runtimes, tprog=1, tdata=1) == [1]

    def test_empty_when_no_one_eligible(self):
        manager = CommunicationManager(2)
        assert step(manager, [], tprog=1, tdata=1) == []
        assert manager.step([], [], tprog=1, tdata=1) is False

    def test_reset_clears_stickiness(self):
        manager = CommunicationManager(1)
        runtimes = [make_runtime(0, tasks=2), make_runtime(1, tasks=2)]
        assert step(manager, runtimes, tprog=1, tdata=1, remaining=[0, 3]) == [1]
        manager.reset()
        assert step(manager, runtimes, tprog=1, tdata=1) == [0]

    def test_invalid_ncom(self):
        with pytest.raises(ValueError):
            CommunicationManager(0)


class TestServe:
    def test_serve_advances_transfers(self):
        manager = CommunicationManager(2)
        runtimes = [make_runtime(0), make_runtime(1, has_program=True)]
        served = {}
        manager.step(runtimes, [3, 1], tprog=2, tdata=1, served=served)
        assert served == {0: "program", 1: "data"}
        assert runtimes[0].program_progress == 1
        assert runtimes[1].data_received == 1

    def test_reports_a_completed_program_transfer(self):
        manager = CommunicationManager(2)
        runtimes = [make_runtime(0), make_runtime(1, has_program=True)]
        # The first program slot of two and a data slot complete no program.
        assert manager.step(runtimes, [3, 1], tprog=2, tdata=1) is False
        assert not runtimes[0].has_program
        assert manager.step(runtimes, [2, 0], tprog=2, tdata=1) is True
        assert runtimes[0].has_program
        # Data slots after the program complete none either.
        assert manager.step(runtimes, [1, 0], tprog=2, tdata=1) is False
