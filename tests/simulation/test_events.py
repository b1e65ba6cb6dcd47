"""Tests for the simulation event log."""

from repro.simulation.events import EventKind, EventLog, SimulationEvent


class TestEventLog:
    def test_record_keeps_order_and_details(self):
        log = EventLog()
        log.record(0, EventKind.CONFIGURATION_CHANGED, old={}, new={"0": 1})
        log.record(3, EventKind.WORKER_FAILED, worker=2)
        log.record(4, EventKind.WORKER_FAILED, worker=1)
        assert len(log) == 3
        assert [(event.slot, event.kind) for event in log] == [
            (0, EventKind.CONFIGURATION_CHANGED),
            (3, EventKind.WORKER_FAILED),
            (4, EventKind.WORKER_FAILED),
        ]
        assert log.events[0].details == {"old": {}, "new": {"0": 1}}
        assert log.events[2].details == {"worker": 1}

    def test_disabled_log_records_nothing(self):
        log = EventLog(enabled=False)
        log.record(0, EventKind.IDLE)
        assert len(log) == 0
        assert log.events == []

    def test_iteration(self):
        log = EventLog()
        log.record(1, EventKind.COMPUTATION, progress=1)
        assert [event.kind for event in log] == [EventKind.COMPUTATION]
        assert isinstance(log.events[0], SimulationEvent)

    def test_events_is_a_copy(self):
        log = EventLog()
        log.record(0, EventKind.IDLE)
        log.events.clear()
        assert len(log) == 1
