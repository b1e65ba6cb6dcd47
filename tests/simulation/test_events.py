"""Tests for the simulation event log."""

from repro.simulation.events import EventKind, EventLog, SimulationEvent


class TestEventLog:
    def test_record_and_query(self):
        log = EventLog()
        log.record(0, EventKind.CONFIGURATION_CHANGED, old={}, new={"0": 1})
        log.record(3, EventKind.WORKER_FAILED, worker=2)
        log.record(4, EventKind.WORKER_FAILED, worker=1)
        assert len(log) == 3
        assert log.count(EventKind.WORKER_FAILED) == 2
        assert log.last().slot == 4
        assert log.last(EventKind.CONFIGURATION_CHANGED).slot == 0

    def test_disabled_log_records_nothing(self):
        log = EventLog(enabled=False)
        log.record(0, EventKind.IDLE)
        assert len(log) == 0
        assert log.last() is None

    def test_iteration(self):
        log = EventLog()
        log.record(1, EventKind.COMPUTATION, progress=1)
        assert [event.kind for event in log] == [EventKind.COMPUTATION]
        assert isinstance(log.events[0], SimulationEvent)

    def test_last_of_missing_kind(self):
        log = EventLog()
        log.record(0, EventKind.IDLE)
        assert log.last(EventKind.RUN_COMPLETED) is None
