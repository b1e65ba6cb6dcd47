"""Tests for the bounded multi-port communication manager.

``CommunicationManager.serve`` batches whole grant intervals; the
slot-by-slot reference in :mod:`tests.simulation.comm_oracle` serves one
slot at a time.  A derandomised Hypothesis property checks that one
``serve`` call over a frozen column leaves every runtime, the sticky set and
the returned counts exactly as that many reference slots do.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulation.comm import CommunicationManager
from repro.simulation.state import WorkerRuntime
from repro.types import DOWN, RECLAIMED, UP
from tests.simulation.comm_oracle import SlotByReference

UP_CODE, RECLAIMED_CODE, DOWN_CODE = int(UP), int(RECLAIMED), int(DOWN)


def make_runtime(worker_id, tasks=1, has_program=False):
    runtime = WorkerRuntime(worker_id=worker_id, has_program=has_program)
    runtime.on_enroll(tasks)
    return runtime


def serve(manager, runtimes, *, tprog, tdata, column=None, remaining=None, span=1):
    """Serve *span* slots: the granted worker ids, ascending."""
    if column is None:
        column = [UP_CODE] * (max((r.worker_id for r in runtimes), default=-1) + 1)
    if remaining is None:
        remaining = [runtime.comm_slots_remaining(tprog, tdata) for runtime in runtimes]
    served = {}
    manager.serve(runtimes, remaining, column, span, tprog=tprog, tdata=tdata, served=served)
    return sorted(served)


class TestAllocate:
    def test_respects_ncom(self):
        manager = CommunicationManager(2)
        runtimes = [make_runtime(i) for i in range(4)]
        assert serve(manager, runtimes, tprog=2, tdata=1) == [0, 1]

    def test_skips_non_up_workers(self):
        manager = CommunicationManager(3)
        runtimes = [make_runtime(i) for i in range(4)]
        column = [UP_CODE, RECLAIMED_CODE, DOWN_CODE, UP_CODE]
        assert serve(manager, runtimes, tprog=1, tdata=1, column=column) == [0, 3]

    def test_skips_workers_without_needs(self):
        manager = CommunicationManager(4)
        done = make_runtime(0, has_program=True)
        done.data_received = done.assigned_tasks
        pending = make_runtime(1)
        assert serve(manager, [done, pending], tprog=2, tdata=1) == [1]

    def test_trusts_the_callers_remaining(self):
        # The remaining list is the engine's; a worker it reports as done
        # gets no channel, whatever its record says.
        manager = CommunicationManager(2)
        runtimes = [make_runtime(0), make_runtime(1)]
        assert serve(manager, runtimes, tprog=1, tdata=1, remaining=[0, 2]) == [1]

    def test_sticky_channels(self):
        manager = CommunicationManager(2)
        runtimes = [make_runtime(i, tasks=2) for i in range(3)]
        assert serve(manager, runtimes, tprog=2, tdata=1) == [0, 1]
        # Worker 0 finishes all its communication; worker 2 should get the free
        # channel while worker 1 keeps its own (stickiness).
        runtimes[0].has_program = True
        runtimes[0].data_received = 2
        assert serve(manager, runtimes, tprog=2, tdata=1) == [1, 2]

    def test_sticky_holder_keeps_its_channel_over_a_lower_id(self):
        manager = CommunicationManager(1)
        runtimes = [make_runtime(0, tasks=2), make_runtime(1, tasks=2)]
        assert serve(manager, runtimes, tprog=1, tdata=1, remaining=[0, 3]) == [1]
        assert serve(manager, runtimes, tprog=1, tdata=1) == [1]

    def test_empty_when_no_one_needs_a_slot(self):
        manager = CommunicationManager(2)
        manager.set_holders([0])
        assert serve(manager, [], tprog=1, tdata=1) == []
        assert manager.serve([], [], [], 1, tprog=1, tdata=1) == (0, False)
        # No slot was served, so the stickiness is untouched.
        assert manager._previous_holders == {0}

    def test_stalled_slots_grant_nothing_and_clear_stickiness(self):
        manager = CommunicationManager(2)
        manager.set_holders([0])
        runtimes = [make_runtime(0), make_runtime(1)]
        column = [RECLAIMED_CODE, RECLAIMED_CODE]
        remaining = [runtime.comm_slots_remaining(2, 1) for runtime in runtimes]
        assert manager.serve(runtimes, remaining, column, 5, tprog=2, tdata=1) == (5, False)
        assert manager._previous_holders == set()
        assert runtimes == [make_runtime(0), make_runtime(1)]

    def test_reset_clears_stickiness(self):
        manager = CommunicationManager(1)
        runtimes = [make_runtime(0, tasks=2), make_runtime(1, tasks=2)]
        assert serve(manager, runtimes, tprog=1, tdata=1, remaining=[0, 3]) == [1]
        manager.reset()
        assert serve(manager, runtimes, tprog=1, tdata=1) == [0]

    def test_invalid_ncom(self):
        with pytest.raises(ValueError):
            CommunicationManager(0)


class TestServe:
    def test_serve_advances_transfers(self):
        manager = CommunicationManager(2)
        runtimes = [make_runtime(0), make_runtime(1, has_program=True)]
        served = {}
        manager.serve(runtimes, [3, 1], [UP_CODE] * 2, 1, tprog=2, tdata=1, served=served)
        assert served == {0: "program", 1: "data"}
        assert runtimes[0].program_progress == 1
        assert runtimes[1].data_received == 1

    def test_reports_a_completed_program_transfer(self):
        manager = CommunicationManager(2)
        runtimes = [make_runtime(0), make_runtime(1, has_program=True)]
        column = [UP_CODE] * 2
        # The first program slot of two and a data slot complete no program.
        assert manager.serve(runtimes, [3, 1], column, 1, tprog=2, tdata=1) == (1, False)
        assert not runtimes[0].has_program
        assert manager.serve(runtimes, [2, 0], column, 1, tprog=2, tdata=1) == (1, True)
        assert runtimes[0].has_program
        # Data slots after the program complete none either.
        assert manager.serve(runtimes, [1, 0], column, 1, tprog=2, tdata=1) == (1, False)

    def test_grants_no_slot_to_a_worker_needing_none(self):
        manager = CommunicationManager(2)
        runtime = make_runtime(0, has_program=True)
        runtime.data_received = 1
        before = dataclasses.replace(runtime)
        assert manager.serve([runtime], [0], [UP_CODE], 3, tprog=2, tdata=1) == (0, False)
        assert runtime == before

    def test_span_stops_when_the_transfers_are_done(self):
        manager = CommunicationManager(1)
        runtimes = [make_runtime(0, tasks=2), make_runtime(2)]
        column = [UP_CODE, DOWN_CODE, UP_CODE]
        remaining = [runtime.comm_slots_remaining(2, 3) for runtime in runtimes]
        assert remaining == [8, 5]
        served = {}
        assert manager.serve(
            runtimes, remaining, column, 20, tprog=2, tdata=3, served=served
        ) == (13, True)
        assert served == {0: "program", 2: "program"}
        assert all(runtime.comm_slots_remaining(2, 3) == 0 for runtime in runtimes)
        # The last slot was worker 2's alone.
        assert manager._previous_holders == {2}


# ----------------------------------------------------------------------
# serve(span=k) on a frozen column == k slots of the slot-by-slot reference
# ----------------------------------------------------------------------
MAX_WORKER = 7


@st.composite
def frozen_cases(draw):
    """(ncom, tprog, tdata, runtimes, column, sticky set, span)."""
    ncom = draw(st.integers(1, 4))
    tprog = draw(st.integers(1, 4))
    tdata = draw(st.integers(1, 4))
    ids = sorted(draw(st.sets(st.integers(0, MAX_WORKER), max_size=6)))
    runtimes = []
    for worker in ids:
        runtime = make_runtime(
            worker, tasks=draw(st.integers(1, 4)), has_program=draw(st.booleans())
        )
        if not runtime.has_program:
            runtime.program_progress = draw(st.integers(0, tprog - 1))
        runtime.data_received = draw(st.integers(0, runtime.assigned_tasks))
        if runtime.data_received < runtime.assigned_tasks:
            runtime.data_progress = draw(st.integers(0, tdata - 1))
        runtimes.append(runtime)
    column = [
        draw(st.sampled_from([UP_CODE, UP_CODE, RECLAIMED_CODE]))
        for _ in range(MAX_WORKER + 1)
    ]
    sticky = draw(st.sets(st.integers(0, MAX_WORKER), max_size=5))
    span = draw(st.integers(1, 40))
    return ncom, tprog, tdata, runtimes, column, sticky, span


def runtime_fields(runtimes):
    return [dataclasses.asdict(runtime) for runtime in runtimes]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(frozen_cases())
# Only RECLAIMED workers owe transfers: every slot is a stalled comm slot.
@example((2, 2, 1, [make_runtime(0), make_runtime(3, tasks=2)],
          [RECLAIMED_CODE] * 8, {0}, 6))
# A RECLAIMED worker keeps owing after the UP ones finish inside the span.
@example((1, 1, 2, [make_runtime(0), make_runtime(1, has_program=True)],
          [UP_CODE, RECLAIMED_CODE] + [UP_CODE] * 6, {1}, 9))
# More sticky holders than channels, one of them a higher id.
@example((1, 2, 1, [make_runtime(1), make_runtime(4), make_runtime(6)],
          [UP_CODE] * 8, {4, 6}, 12))
# Nothing owed at all: no slot is served and the sticky set stays.
@example((3, 1, 1, [], [UP_CODE] * 8, {2}, 4))
def test_serve_span_equals_reference_slots(case):
    ncom, tprog, tdata, runtimes, column, sticky, span = case
    reference_runtimes = [dataclasses.replace(runtime) for runtime in runtimes]
    runtimes = [dataclasses.replace(runtime) for runtime in runtimes]

    reference = SlotByReference(ncom, sticky)
    expected_served = {}
    expected = reference.run(
        reference_runtimes, column, span, tprog=tprog, tdata=tdata, served=expected_served
    )

    manager = CommunicationManager(ncom)
    manager.set_holders(sticky)
    remaining = [runtime.comm_slots_remaining(tprog, tdata) for runtime in runtimes]
    served = {}
    got = manager.serve(runtimes, remaining, column, span, tprog=tprog, tdata=tdata, served=served)

    assert got == expected
    assert runtime_fields(runtimes) == runtime_fields(reference_runtimes)
    assert manager._previous_holders == reference.holders
    assert served == expected_served

