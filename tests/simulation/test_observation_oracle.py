"""The engine's incremental observations against an eager oracle.

The engine keeps the program-holder set and the UP list between slots and
computes ``states``, ``data_received`` and ``comm_remaining`` on first read.
:func:`eager_fields` is the construction it replaced: every runtime-derived
field rebuilt from scratch out of the engine's runtimes and the slot's
availability column.  A wrapping scheduler compares the two at every slot on
which the engine consults it, over proactive, passive, RANDOM and extension
heuristics, on a Markov platform, a channel-starved one (communication
drained interval by interval), one with a correlated-outage overlay and one
with ``tprog == 0`` (program handed out by ``absorb_free_transfers``).
"""

import dataclasses

import numpy as np
import pytest

from repro.application import Application
from repro.availability.registry import model_factory_for
from repro.experiments.scenarios import AvailabilitySpec
from repro.platform import Platform, PlatformSpec, paper_platform
from repro.platform.builders import availability_platform
from repro.scheduling import create_scheduler
from repro.scheduling.base import Observation, Scheduler
from repro.simulation import MultiHeuristicDriver, SimulationEngine
from repro.types import UP

pytestmark = pytest.mark.slow

HEURISTICS = ["RANDOM", "IP", "IE", "Y-IE", "P-IY", "E-IAY", "THRESHOLD-IE(tau=0.5)"]

MAX_SLOTS = 20_000
ITERATIONS = 30


def eager_fields(engine, slot):
    """Today's observation fields, built eagerly from the engine's state."""
    platform = engine.platform
    runtimes = engine._runtimes
    column = engine._block[:, slot - engine._block_start]
    return {
        "states": column.copy(),
        "has_program": frozenset(
            runtime.worker_id for runtime in runtimes if runtime.has_program
        ),
        "data_received": {
            runtime.worker_id: runtime.data_received
            for runtime in runtimes
            if runtime.enrolled
        },
        "comm_remaining": {
            runtime.worker_id: runtime.comm_slots_remaining(platform.tprog, platform.tdata)
            for runtime in runtimes
            if runtime.enrolled
        },
        "up_workers": [
            worker for worker, state in enumerate(column.tolist()) if state == int(UP)
        ],
    }


class OracleCheck(Scheduler):
    """Delegates to *inner* after checking each observation against the oracle."""

    def __init__(self, inner: Scheduler) -> None:
        super().__init__()
        self.inner = inner
        self.name = inner.name
        self.passive_between_rebuilds = inner.passive_between_rebuilds
        self.engine = None
        self.checked = 0
        self.holder_sets = set()

    def bind(self, platform, application, analysis, rng) -> None:
        super().bind(platform, application, analysis, rng)
        self.inner.bind(platform, application, analysis, rng)

    def select(self, observation: Observation):
        expected = eager_fields(self.engine, observation.slot)
        assert isinstance(observation, Observation)
        states = observation.states
        assert isinstance(states, np.ndarray) and states.dtype == expected["states"].dtype
        assert np.array_equal(states, expected["states"])
        assert not np.shares_memory(states, self.engine._block)
        assert isinstance(observation.has_program, frozenset)
        assert observation.has_program == expected["has_program"], observation.slot
        for name in ("data_received", "comm_remaining"):
            got = getattr(observation, name)
            assert type(got) is dict
            assert list(got.items()) == list(expected[name].items()), (name, observation.slot)
            assert all(type(value) is int for value in got.values())
        up = observation.up_workers()
        assert type(up) is list and all(type(worker) is int for worker in up)
        assert up == expected["up_workers"]
        assert up is not observation.up_workers()
        assert dataclasses.replace(observation).up_workers() == up
        assert list(observation.current_configuration.workers) == list(
            expected["data_received"]
        )
        self.checked += 1
        self.holder_sets.add(observation.has_program)
        return self.inner.select(observation)


def markov_platform(ncom=10):
    return paper_platform(
        PlatformSpec(num_processors=20, ncom=ncom, wmin=2), num_tasks=5, seed=123
    )


def starved_platform():
    """Two channels for long data messages: the fast path drains them."""
    return paper_platform(
        PlatformSpec(num_processors=20, ncom=2, wmin=1, tdata_factor=3),
        num_tasks=8,
        seed=123,
    )


def hazard_platform():
    spec = AvailabilitySpec(
        kind="correlated",
        parameters=(("domains", 3), ("mean_outage", 12), ("rate", 0.01)),
    )
    return availability_platform(
        PlatformSpec(num_processors=12, ncom=6, wmin=1),
        num_tasks=5,
        seed=99,
        model_factory=model_factory_for(spec),
    )


def free_program_platform():
    base = markov_platform()
    return Platform(base.processors, ncom=3, tprog=0, tdata=base.tdata)


PLATFORMS = {
    "markov": markov_platform,
    "starved": starved_platform,
    "hazard": hazard_platform,
    "tprog0": free_program_platform,
}


def checked_run(platform, name, seed, **options):
    scheduler = OracleCheck(create_scheduler(name))
    engine = SimulationEngine(
        platform,
        Application(tasks_per_iteration=5, iterations=ITERATIONS),
        scheduler,
        seed=seed,
        max_slots=MAX_SLOTS,
        **options,
    )
    scheduler.engine = engine
    engine.run()
    return scheduler


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize("name", HEURISTICS)
def test_observation_matches_eager_oracle(platform_name, name, seed):
    scheduler = checked_run(PLATFORMS[platform_name](), name, seed=seed)
    assert scheduler.checked > 0
    if platform_name == "tprog0":
        # Only enrolment (absorb_free_transfers) hands out the program here.
        assert any(scheduler.holder_sets)


@pytest.mark.parametrize("name", ["IE", "Y-IE"])
def test_slot_by_slot_path_matches_eager_oracle(name):
    scheduler = checked_run(starved_platform(), name, seed=11, record_events=True)
    assert scheduler.checked > 0


def test_one_pass_driver_matches_eager_oracle():
    schedulers = [OracleCheck(create_scheduler(name)) for name in ("IP", "IE", "RANDOM")]
    driver = MultiHeuristicDriver(
        starved_platform(),
        Application(tasks_per_iteration=5, iterations=ITERATIONS),
        schedulers,
        seed=3,
        max_slots=MAX_SLOTS,
        block_size=256,
    )
    for scheduler, engine in zip(schedulers, driver.engines):
        scheduler.engine = engine
    driver.run()
    assert all(scheduler.checked > 0 for scheduler in schedulers)
