"""The engine's DOWN scan against the premises it rests on.

The failure scan visits only the runtimes that can carry state: the enrolled
ones and the program holders.  That is exact because un-enrolment and DOWN
wipe every other field and only enrolled runtimes receive transfers.  A
wrapping scheduler checks, at every slot on which the engine consults it,
that

* every runtime with any state is enrolled or holds the program (the
  premise), and
* no runtime with any state is DOWN in the slot's column (the scan reached
  every DOWN worker that had something to lose),

over proactive, passive, RANDOM and threshold heuristics on the platforms of
the observation oracle: Markov, channel-starved, correlated-outage and
``tprog == 0``.  A hand-made trace then takes a program holder that is no
longer enrolled DOWN on a consulted slot, through the solo engine, the
one-pass driver and the slot-by-slot ``record_events`` path.
"""

import pytest

from repro.application import Application, Configuration
from repro.availability import AvailabilityTrace
from repro.platform import uniform_platform
from repro.scheduling import create_scheduler
from repro.scheduling.base import Observation, Scheduler
from repro.simulation import MultiHeuristicDriver, SimulationEngine
from repro.types import DOWN
from tests.simulation.test_observation_oracle import PLATFORMS

HEURISTICS = ["Y-IE", "IE", "RANDOM", "THRESHOLD-IE(tau=0.5)"]

MAX_SLOTS = 3_000
ITERATIONS = 8


def carries_state(runtime) -> bool:
    return bool(
        runtime.enrolled
        or runtime.has_program
        or runtime.assigned_tasks
        or runtime.program_progress
        or runtime.data_received
        or runtime.data_progress
    )


class CarrierCheck(Scheduler):
    """Delegates to *inner* after checking the runtimes the DOWN scan relies on."""

    def __init__(self, inner: Scheduler) -> None:
        super().__init__()
        self.inner = inner
        self.name = inner.name
        self.passive_between_rebuilds = inner.passive_between_rebuilds
        self.engine = None
        self.checked = 0
        self.holders_seen = 0

    def bind(self, platform, application, analysis, rng) -> None:
        super().bind(platform, application, analysis, rng)
        self.inner.bind(platform, application, analysis, rng)

    def select(self, observation: Observation):
        engine = self.engine
        column = engine._block[:, observation.slot - engine._block_start].tolist()
        for runtime in engine._runtimes:
            if not carries_state(runtime):
                continue
            assert runtime.enrolled or runtime.has_program, (observation.slot, runtime)
            assert column[runtime.worker_id] != int(DOWN), (observation.slot, runtime)
            if runtime.has_program and not runtime.enrolled:
                self.holders_seen += 1
        self.checked += 1
        return self.inner.select(observation)


def checked_run(platform, name, seed):
    scheduler = CarrierCheck(create_scheduler(name))
    engine = SimulationEngine(
        platform,
        Application(tasks_per_iteration=5, iterations=ITERATIONS),
        scheduler,
        seed=seed,
        max_slots=MAX_SLOTS,
    )
    scheduler.engine = engine
    engine.run()
    return scheduler


@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize("name", HEURISTICS)
def test_every_state_carrier_is_enrolled_or_a_holder(platform_name, name):
    scheduler = checked_run(PLATFORMS[platform_name](), name, seed=5)
    assert scheduler.checked > 0


def test_proactive_runs_meet_holders_outside_the_configuration():
    # The premise is only interesting where un-enrolled holders exist.
    scheduler = checked_run(PLATFORMS["markov"](), "Y-IE", seed=5)
    assert scheduler.holders_seen > 0


# ----------------------------------------------------------------------
# A program holder that is no longer enrolled goes DOWN on a consulted slot
# ----------------------------------------------------------------------
#: Worker 0 receives the program over slots 0-1 and is replaced by worker 1
#: at slot 2; worker 1 holds the program from slot 4 on, when worker 0 goes
#: DOWN.
TRACE = ["uuuuduuuuuuuuuuu", "uuuuuuuuuuuuuuuu", "uuuuuuuuuuuuuuuu"]


class Handover(Scheduler):
    """Enrols worker 0, hands the task to worker 1 at slot 2, then keeps it."""

    name = "HANDOVER"

    def __init__(self) -> None:
        super().__init__()
        self.seen = []

    def select(self, observation: Observation):
        self.seen.append((observation.slot, observation.has_program, observation.failure))
        if observation.slot < 2:
            return Configuration({0: 1})
        if observation.slot == 2:
            return Configuration({1: 1})
        return observation.current_configuration


def handover_setup():
    platform = uniform_platform(3, tprog=2, tdata=1)
    application = Application(tasks_per_iteration=1, iterations=2)
    return platform, application, AvailabilityTrace(TRACE)


def test_un_enrolled_holder_down_on_consulted_slot():
    platform, application, trace = handover_setup()
    runs = []
    for record_events in (False, True):
        scheduler = Handover()
        engine = SimulationEngine(
            platform, application, scheduler, trace=trace, max_slots=len(TRACE[0]),
            record_events=record_events,
        )
        runs.append((scheduler.seen, engine.run()))
    scheduler = Handover()
    driver = MultiHeuristicDriver(
        platform, application, [scheduler], trace=trace, max_slots=len(TRACE[0]),
        block_size=3,
    )
    runs.append((scheduler.seen, driver.run()[0]))

    seen, result = runs[0]
    holders = {slot: has_program for slot, has_program, _ in seen}
    assert holders[2] == frozenset({0})
    assert holders[3] == frozenset({0})  # un-enrolled, still holding the program
    assert holders[4] == frozenset({1})  # DOWN took it: the scan visited worker 0
    assert not any(failure for _, _, failure in seen)  # worker 0 was not enrolled
    assert result.success and result.total_restarts == 0
    for other in runs[1:]:
        assert other == runs[0]
