"""Tests for the ASCII Gantt rendering."""

import numpy as np
import pytest

from repro.application import Application
from repro.availability import MarkovAvailabilityModel
from repro.platform import Platform, PlatformSpec, Processor, paper_platform
from repro.scheduling import create_scheduler
from repro.simulation import EventKind, SampledTrace, SimulationEngine, SimulationEvent
from repro.simulation.gantt import activity_from_events, render_gantt


class TestRenderGantt:
    def test_basic_rendering(self):
        activity = np.array([["P", "D", "C", "C"], ["I", "P", "C", "C"]])
        states = np.array([[0, 0, 0, 0], [0, 0, 1, 2]])
        text = render_gantt(activity, states)
        lines = text.splitlines()
        assert lines[1].startswith("P1")
        assert "PDCC" in lines[1].replace(" ", "")
        # Worker 2: reclaimed slot rendered as the middle dot, down as '#'.
        assert "·" in lines[2]
        assert "#" in lines[2]
        assert "legend" in lines[-1]

    def test_window_selection(self):
        activity = np.full((1, 10), "C")
        states = np.zeros((1, 10), dtype=int)
        text = render_gantt(activity, states, start=2, end=5)
        worker_line = text.splitlines()[1]
        assert worker_line.count("C") == 3

    def test_invalid_window(self):
        activity = np.full((1, 3), "C")
        states = np.zeros((1, 3), dtype=int)
        with pytest.raises(ValueError):
            render_gantt(activity, states, start=5, end=2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            render_gantt(np.full((1, 3), "C"), np.zeros((2, 3), dtype=int))

    def test_custom_names(self):
        activity = np.full((2, 2), "C")
        states = np.zeros((2, 2), dtype=int)
        text = render_gantt(activity, states, worker_names=["alpha", "beta"])
        assert "alpha" in text and "beta" in text

    def test_end_to_end_with_engine(self):
        processors = [
            Processor(speed=i, capacity=5, availability=MarkovAvailabilityModel.always_up())
            for i in range(1, 4)
        ]
        platform = Platform(processors, ncom=1, tprog=1, tdata=1)
        application = Application(tasks_per_iteration=3, iterations=1)
        trace = SampledTrace(platform, 0, 100)
        engine = SimulationEngine(
            platform, application, create_scheduler("IE"), seed=0, max_slots=100,
            trace=trace, record_events=True,
        )
        result = engine.run()
        assert result.success
        activity = activity_from_events(engine.events, 3, result.makespan)
        text = render_gantt(activity, trace.block(0, result.makespan))
        assert "P1" in text
        assert "C" in text  # some computation happened


class TestActivityFromEvents:
    def test_each_rule(self):
        def event(slot, kind, **details):
            return SimulationEvent(slot=slot, kind=kind, details=details)

        events = [
            event(0, EventKind.IDLE, reason="no_feasible_configuration"),
            event(1, EventKind.CONFIGURATION_CHANGED, old={}, new={"0": 1, "2": 2}),
            event(1, EventKind.COMMUNICATION, served={0: "program"}),
            # Slot 2: a communication slot that served nobody.
            event(3, EventKind.COMMUNICATION, served={0: "data", 2: "program"}),
            event(4, EventKind.COMPUTATION, progress=1, workload=2),
            event(5, EventKind.IDLE, reason="worker_reclaimed"),
            event(6, EventKind.WORKER_FAILED, worker=2),
            event(6, EventKind.ITERATION_RESTARTED, iteration=0),
            event(6, EventKind.IDLE, reason="no_feasible_configuration"),
            event(7, EventKind.CONFIGURATION_CHANGED, old={"0": 1}, new={"0": 1, "1": 2}),
            event(7, EventKind.COMMUNICATION, served={1: "program"}),
        ]
        activity = activity_from_events(events, 3, 8)
        assert ["".join(row) for row in activity.tolist()] == [
            " PIDCI I",
            "       P",
            " IIPCI  ",
        ]

    @pytest.mark.parametrize("heuristic", ["IE", "RANDOM", "Y-IE", "E-IAY"])
    def test_columns_agree_with_the_result(self, heuristic):
        platform = paper_platform(
            PlatformSpec(num_processors=8, ncom=2, wmin=4), num_tasks=4, seed=5
        )
        application = Application(tasks_per_iteration=4, iterations=2)
        engine = SimulationEngine(
            platform, application, create_scheduler(heuristic), seed=5, max_slots=50_000,
            record_events=True,
        )
        result = engine.run()
        assert result.success
        activity = activity_from_events(engine.events, 8, result.makespan)
        computing = (activity == "C").any(axis=0)
        transfers = ((activity == "P") | (activity == "D")).sum(axis=0)
        assert computing.sum() == result.computation_slots
        assert transfers.max() <= platform.ncom
        assert (transfers > 0).sum() <= result.communication_slots

    @pytest.mark.parametrize("heuristic", ["IP", "IE", "RANDOM", "P-IY", "Y-IE", "E-IAY"])
    def test_a_capped_run_draws_the_same_first_slots(self, heuristic):
        """The slot-by-slot path never looks ahead, so stopping a run early
        (as the HTML drill-down does) leaves the slots it drew unchanged."""
        platform = paper_platform(
            PlatformSpec(num_processors=8, ncom=3, wmin=2), num_tasks=5, seed=9
        )
        application = Application(tasks_per_iteration=5, iterations=3)
        charts = []
        for max_slots in (60, 50_000):
            engine = SimulationEngine(
                platform, application, create_scheduler(heuristic), seed=9,
                max_slots=max_slots, record_events=True,
            )
            result = engine.run()
            charts.append(activity_from_events(engine.events, 8, 60))
        assert result.success and result.makespan > 60
        assert (charts[0] != " ").any()
        assert (charts[0] == charts[1]).all()
