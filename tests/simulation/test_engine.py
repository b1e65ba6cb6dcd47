"""Tests for the time-slot simulation engine."""

import numpy as np
import pytest

from repro.application import Application, Configuration
from repro.availability import AvailabilityTrace, MarkovAvailabilityModel
from repro.availability.generators import paper_transition_matrix
from repro.exceptions import SchedulingError, SimulationError
from repro.metrics import MetricsCollector
from repro.platform import Platform, Processor, uniform_platform
from repro.scheduling.base import Observation, Scheduler
from repro.simulation import SampledTrace, SimulationEngine, simulate
from repro.simulation.events import EventKind
from repro.simulation.gantt import activity_from_events, render_gantt


class StaticScheduler(Scheduler):
    """Test helper: always requests a fixed configuration when its workers are UP."""

    name = "STATIC"

    def __init__(self, allocation):
        super().__init__()
        self.target = Configuration(allocation)

    def select(self, observation: Observation) -> Configuration:
        if all(observation.is_up(worker) for worker in self.target.workers):
            return self.target
        # Keep the current configuration if it is still intact, otherwise wait.
        if not observation.failure and not observation.current_configuration.is_empty():
            return observation.current_configuration
        return Configuration.empty()


def reliable_processor(speed, capacity=5):
    return Processor(speed=speed, capacity=capacity,
                     availability=MarkovAvailabilityModel.always_up())


#: The chart of the Figure-1 configuration on an always-UP platform.
FIGURE1_CHART = (
    "   0    5    10 \n"
    "P1              \n"
    "P2 PPDDIIICCCCCC\n"
    "P3 PPDDIIICCCCCC\n"
    "P4 IIIIPPDCCCCCC\n"
    "P5              \n"
    "legend: P=program  D=data  C=compute  I=idle  ·=reclaimed  #=down  "
    "(blank = not enrolled)"
)


def figure1_platform():
    """Five processors with w_i = i, ncom = 2, Tprog = 2, Tdata = 1 (Figure 1 setup)."""
    processors = [reliable_processor(speed=i) for i in range(1, 6)]
    return Platform(processors, ncom=2, tprog=2, tdata=1)


class TestBasicExecution:
    def test_single_iteration_no_communication(self):
        platform = uniform_platform(3, speed=2, capacity=2, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=3, iterations=1)
        scheduler = StaticScheduler({0: 1, 1: 1, 2: 1})
        result = simulate(platform, application, scheduler, seed=0, max_slots=100)
        assert result.success
        # Workload = 1 task * speed 2 = 2 slots, no communication.
        assert result.makespan == 2
        assert result.completed_iterations == 1
        assert result.computation_slots == 2
        assert result.communication_slots == 0

    def test_multiple_iterations_accumulate(self):
        platform = uniform_platform(2, speed=3, capacity=3, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=2, iterations=4)
        scheduler = StaticScheduler({0: 1, 1: 1})
        result = simulate(platform, application, scheduler, seed=0, max_slots=100)
        assert result.success
        assert result.makespan == 4 * 3
        assert len(result.iterations) == 4
        assert all(record.completed for record in result.iterations)

    def test_unbalanced_allocation_sets_workload(self):
        platform = uniform_platform(2, speed=2, capacity=4, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=4, iterations=1)
        scheduler = StaticScheduler({0: 3, 1: 1})
        result = simulate(platform, application, scheduler, seed=0, max_slots=100)
        assert result.makespan == 6  # max(3, 1) tasks * speed 2

    def test_figure1_communication_and_computation_timeline(self):
        """Golden test for the Figure-1 configuration on an always-UP platform.

        Configuration: P2 and P3 get two tasks each, P4 gets one (0-based ids
        1, 2, 3).  With Tprog = 2, Tdata = 1 and ncom = 2 the communication
        phase takes 7 slots (P4 waits for a free channel), and the computation
        phase takes max(2*2, 2*3, 1*4) = 6 slots.
        """
        platform = figure1_platform()
        application = Application(tasks_per_iteration=5, iterations=1)
        scheduler = StaticScheduler({1: 2, 2: 2, 3: 1})
        trace = SampledTrace(platform, 0, 100)
        engine = SimulationEngine(
            platform, application, scheduler, seed=0, max_slots=100, trace=trace,
            record_events=True,
        )
        result = engine.run()
        assert result.success
        assert result.communication_slots == 7
        assert result.computation_slots == 6
        assert result.makespan == 13
        activity = activity_from_events(engine.events, 5, result.makespan)
        # Worker P1 (id 0) and P5 (id 4) are never enrolled.
        assert np.all(activity[0] == " ")
        assert np.all(activity[4] == " ")
        # P4 (id 3) is idle during the first slots (bandwidth constraint).
        assert list(activity[3, :3]) == ["I", "I", "I"]
        assert render_gantt(activity, trace.block(0, result.makespan)) == FIGURE1_CHART

    def test_iterations_resend_data_but_not_program(self):
        platform = figure1_platform()
        application = Application(tasks_per_iteration=5, iterations=2)
        scheduler = StaticScheduler({1: 2, 2: 2, 3: 1})
        result = simulate(platform, application, scheduler, seed=0, max_slots=200)
        assert result.success
        # Iteration 2 needs only the data messages (5 messages, ncom = 2,
        # Tdata = 1): workers 1 and 2 take 2 slots, worker 3 one more -> 3 slots.
        first, second = result.iterations
        assert first.duration == 13
        assert second.communication_slots == 3
        assert second.duration == 3 + 6


class TestVolatileBehaviour:
    def test_reclaimed_worker_suspends_computation(self):
        # Worker 1 is RECLAIMED for slots 2-3; computation must stall 2 slots.
        rows = [
            "uuuuuuuuuuuu",
            "uurruuuuuuuu",
        ]
        trace = AvailabilityTrace(rows)
        platform = uniform_platform(2, speed=2, capacity=2, tprog=1, tdata=1)
        application = Application(tasks_per_iteration=2, iterations=1)
        scheduler = StaticScheduler({0: 1, 1: 1})
        result = simulate(
            platform, application, scheduler, seed=0, max_slots=12, trace=trace
        )
        assert result.success
        # Comm: each worker needs 1 (prog) + 1 (data) = 2 slots, ncom=2 -> slots 0-1.
        # Compute needs 2 all-UP slots; slots 2-3 are lost to the reclamation, so
        # the computation happens at slots 4-5.
        assert result.makespan == 6
        assert result.idle_slots == 2
        assert result.total_restarts == 0

    def test_down_worker_restarts_iteration(self):
        # Worker 1 crashes at slot 3 (during computation) and recovers at slot 5.
        rows = [
            "uuuuuuuuuuuuuuu",
            "uuuddunuuuuuuuu".replace("n", "u"),
        ]
        trace = AvailabilityTrace(rows)
        platform = uniform_platform(2, speed=3, capacity=2, tprog=0, tdata=1)
        application = Application(tasks_per_iteration=2, iterations=1)
        scheduler = StaticScheduler({0: 1, 1: 1})
        result = simulate(
            platform, application, scheduler, seed=0, max_slots=20, trace=trace
        )
        assert result.success
        assert result.total_restarts == 1
        # Timeline: comm slots 0-1 (1 data message each, ncom=2 serves both at
        # slot 0... Tdata=1 so both done at slot 0), compute slots 1-2, crash at
        # slot 3 -> restart; worker 1 re-enrolled at slot 5, needs its data again
        # (1 slot), then 3 compute slots with both UP.
        assert result.makespan >= 9

    def test_failure_counts_and_events(self):
        # Worker 0 crashes at slot 2 (mid-iteration) and recovers at slot 3.
        rows = ["uuduuuuuuuuu", "uuuuuuuuuuuu"]
        trace = AvailabilityTrace(rows)
        platform = uniform_platform(2, speed=3, capacity=2, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=2, iterations=2)
        scheduler = StaticScheduler({0: 1, 1: 1})
        engine = SimulationEngine(
            platform, application, scheduler, seed=0, max_slots=12, trace=trace,
            record_events=True,
        )
        result = engine.run()
        assert result.success
        assert result.total_restarts == 1
        kinds = [event.kind for event in engine.events]
        assert kinds.count(EventKind.WORKER_FAILED) == 1
        assert kinds.count(EventKind.ITERATION_COMPLETED) == 2
        # Iteration 1 restarts at slot 3 and finishes at slot 5; iteration 2 at slot 8.
        assert result.makespan == 9

    def test_cap_reached_is_a_failure(self):
        # Worker 1 is DOWN forever: the 2-task iteration can never complete.
        trace = AvailabilityTrace(["uuuuuuuuuu", "dddddddddd"])
        platform = uniform_platform(2, speed=1, capacity=1, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=2, iterations=1)
        scheduler = StaticScheduler({0: 1, 1: 1})
        result = simulate(
            platform, application, scheduler, seed=0, max_slots=10, trace=trace
        )
        assert not result.success
        assert result.makespan is None
        assert result.completed_iterations == 0
        assert result.effective_makespan() == 10


class TestEngineValidation:
    def test_trace_must_cover_all_processors(self):
        platform = uniform_platform(3, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=1, iterations=1)
        with pytest.raises(SimulationError):
            SimulationEngine(
                platform, application, StaticScheduler({0: 1}),
                trace=AvailabilityTrace(["uu"]),
            )

    def test_trace_too_short_raises_at_runtime(self):
        platform = uniform_platform(1, speed=5, capacity=1, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=1, iterations=10)
        engine = SimulationEngine(
            platform, application, StaticScheduler({0: 1}),
            trace=AvailabilityTrace(["uuu"]), max_slots=50,
        )
        with pytest.raises(SimulationError):
            engine.run()

    def test_platform_capacity_checked(self):
        platform = uniform_platform(1, capacity=1, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=3, iterations=1)
        with pytest.raises(Exception):
            SimulationEngine(platform, application, StaticScheduler({0: 3}))

    def test_invalid_max_slots(self):
        platform = uniform_platform(1, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=1, iterations=1)
        with pytest.raises(SimulationError):
            SimulationEngine(platform, application, StaticScheduler({0: 1}), max_slots=0)

    def test_scheduler_errors_are_caught(self):
        class BadScheduler(Scheduler):
            name = "BAD"

            def select(self, observation):
                return Configuration({0: 1})  # only 1 of 2 tasks

        platform = uniform_platform(2, capacity=2, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=2, iterations=1)
        with pytest.raises(SchedulingError):
            simulate(platform, application, BadScheduler(), max_slots=5)

    def test_scheduler_cannot_overload_capacity(self):
        class Overloader(Scheduler):
            name = "OVER"

            def select(self, observation):
                return Configuration({0: 2})

        platform = uniform_platform(2, capacity=1, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=2, iterations=1)
        with pytest.raises(SchedulingError):
            simulate(platform, application, Overloader(), max_slots=5)

    def test_scheduler_cannot_enroll_down_worker(self):
        class EnrollDown(Scheduler):
            name = "DOWNER"

            def select(self, observation):
                return Configuration({0: 1, 1: 1})

        trace = AvailabilityTrace(["uuuu", "dddd"])
        platform = uniform_platform(2, capacity=1, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=2, iterations=1)
        with pytest.raises(SchedulingError):
            simulate(platform, application, EnrollDown(), trace=trace, max_slots=5)

    def test_pre_prune_configuration_is_checked_again(self):
        # Worker 1 goes DOWN at slot 2; the engine prunes it from the
        # configuration, but this scheduler hands back the very object it
        # returned (and the engine validated) before the failure.
        class KeepsPrePrune(Scheduler):
            name = "PREPRUNE"

            def reset(self):
                self.target = Configuration({0: 1, 1: 1})

            def select(self, observation):
                return self.target

        trace = AvailabilityTrace(["uuuuuu", "uudddd"])
        platform = uniform_platform(2, speed=10, capacity=1, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=2, iterations=1)
        with pytest.raises(SchedulingError, match="enrolled DOWN worker 1"):
            simulate(platform, application, KeepsPrePrune(), trace=trace, max_slots=6)

    def test_pruned_current_configuration_is_checked_again(self):
        # After the failure the current configuration is the pruned one,
        # which carries 1 of the 2 tasks; returning it must be refused.
        class KeepsCurrent(Scheduler):
            name = "KEEPER"

            def select(self, observation):
                if observation.current_configuration.is_empty():
                    return Configuration({0: 1, 1: 1})
                return observation.current_configuration

        trace = AvailabilityTrace(["uuuuuu", "uudddd"])
        platform = uniform_platform(2, speed=10, capacity=1, tprog=0, tdata=0)
        application = Application(tasks_per_iteration=2, iterations=1)
        with pytest.raises(SchedulingError, match="1 tasks instead of 2"):
            simulate(platform, application, KeepsCurrent(), trace=trace, max_slots=6)

    def test_each_adopted_configuration_is_validated_once(self, monkeypatch):
        from repro.platform import PlatformSpec, paper_platform
        from repro.scheduling import create_scheduler

        validated = []
        check = SimulationEngine._validate_selection

        def spy(engine, new_config, *args):
            validated.append(new_config)
            return check(engine, new_config, *args)

        monkeypatch.setattr(SimulationEngine, "_validate_selection", spy)

        class Recorder(Scheduler):
            """Y-IE, logging what it returns against the current configuration."""

            name = "Y-IE"

            def __init__(self):
                super().__init__()
                self.inner = create_scheduler("Y-IE")
                self.returned = []

            def bind(self, platform, application, analysis, rng):
                super().bind(platform, application, analysis, rng)
                self.inner.bind(platform, application, analysis, rng)

            def select(self, observation):
                configuration = self.inner.select(observation)
                self.returned.append((configuration, observation.current_configuration))
                return configuration

        platform = paper_platform(
            PlatformSpec(num_processors=20, ncom=10, wmin=2), num_tasks=5, seed=123
        )
        scheduler = Recorder()
        result = simulate(
            platform, Application(tasks_per_iteration=5, iterations=10), scheduler,
            seed=7, max_slots=20_000,
        )
        assert result.success
        # Every slot consults a proactive scheduler ...
        assert len(scheduler.returned) == result.makespan
        # ... but only a configuration other than the current one is checked.
        adopted = [new for new, current in scheduler.returned if new is not current]
        assert [id(config) for config in validated] == [id(config) for config in adopted]
        assert result.total_configuration_changes <= len(validated) < result.makespan // 10


class TestDeterminismAndPairing:
    def _markov_platform(self):
        stays = [(0.9, 0.9, 0.9), (0.95, 0.9, 0.9), (0.92, 0.9, 0.9)]
        processors = [
            Processor(speed=1, capacity=3,
                      availability=MarkovAvailabilityModel(paper_transition_matrix(list(s))))
            for s in stays
        ]
        return Platform(processors, ncom=2, tprog=1, tdata=1)

    def test_same_seed_same_result(self):
        platform = self._markov_platform()
        application = Application(tasks_per_iteration=3, iterations=3)
        a = simulate(platform, application, StaticScheduler({0: 1, 1: 1, 2: 1}),
                     seed=11, max_slots=5000)
        b = simulate(platform, application, StaticScheduler({0: 1, 1: 1, 2: 1}),
                     seed=11, max_slots=5000)
        assert a.makespan == b.makespan
        assert a.total_restarts == b.total_restarts

    def test_second_run_starts_a_new_event_log(self):
        """A second ``run()`` replays the first one's trace, and logs only its own events."""
        from repro.platform import PlatformSpec, paper_platform
        from repro.scheduling import create_scheduler

        platform = paper_platform(PlatformSpec(8, ncom=4, wmin=1), num_tasks=3, seed=5)
        engine = SimulationEngine(
            platform, Application(tasks_per_iteration=3), create_scheduler("IE"),
            seed=5, record_events=True,
        )
        first = engine.run()
        first_events = engine.events.events
        second = engine.run()
        assert second == first
        assert engine.events.events == first_events
        kinds = [event.kind for event in engine.events]
        assert kinds.count(EventKind.RUN_COMPLETED) == 1

    def test_different_seeds_usually_differ(self):
        platform = self._markov_platform()
        application = Application(tasks_per_iteration=3, iterations=3)
        makespans = {
            simulate(platform, application, StaticScheduler({0: 1, 1: 1, 2: 1}),
                     seed=seed, max_slots=5000).makespan
            for seed in range(6)
        }
        assert len(makespans) > 1

    def test_availability_is_paired_across_schedulers(self):
        """Two different schedulers with the same seed see the same availability."""
        from repro.scheduling import create_scheduler

        platform = self._markov_platform()
        application = Application(tasks_per_iteration=3, iterations=2)

        class BlockRecorder(MetricsCollector):
            """A collector that also keeps the availability blocks the run read."""

            def on_block(self, start, block):
                self.blocks.append((start, block.copy()))
                super().on_block(start, block)

        makespans = {}
        for name in ("RANDOM", "IE"):
            recorder = BlockRecorder()
            recorder.blocks = []
            engine = SimulationEngine(
                platform, application, create_scheduler(name), seed=77, max_slots=5000,
                metrics=recorder,
            )
            result = engine.run()
            makespans[name] = result.makespan
            # Record the availability of the first 30 slots for comparison.
            start, block = recorder.blocks[0]
            assert start == 0
            makespans[name + "_states"] = block[:, :30].tolist()
        assert makespans["RANDOM_states"] == makespans["IE_states"]
