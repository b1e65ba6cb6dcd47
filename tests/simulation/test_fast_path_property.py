"""Generative check: the engine's fast paths change no result.

Hypothesis draws small platforms on three substrates: the paper's Markov
chain, a correlated-outage hazard overlay and trace replay.  It draws
``ncom`` below and above the enrolled count, so the communication phase
takes both the capacity-surplus jump and the channel-starved drain, and a
``block_size`` from one slot up to the default window, so jumps end at
window edges of every width.  For RANDOM and the four passive heuristics the
default engine, which takes every fast-forward jump, must return the same
:class:`~repro.simulation.results.SimulationResult` as a
``record_events=True`` run, which takes none.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.application import Application
from repro.availability.registry import model_factory_for
from repro.availability.trace import TraceAvailabilityModel
from repro.experiments.scenarios import AvailabilitySpec
from repro.platform import PlatformSpec
from repro.platform.builders import availability_platform
from repro.scheduling import create_scheduler
from repro.simulation import SimulationEngine

HEURISTICS = ("RANDOM", "IP", "IE", "IY", "IAY")
MAX_SLOTS = 1500


@st.composite
def trace_factory(draw):
    """A ``trace``-substrate model factory over drawn rows of state runs.

    Each row ends UP, so the Markov chain the analysis fits to it leaves
    every state it enters.
    """
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = []
        while len(row) < 400:
            row += [draw(st.sampled_from([0, 0, 1, 2]))] * draw(st.integers(1, 60))
        rows.append(np.array(row + [0], dtype=np.int8))

    def factory(rng, count):
        return [TraceAvailabilityModel(rows[index % len(rows)]) for index in range(count)]

    return factory


def substrates():
    markov = st.builds(lambda: model_factory_for(AvailabilitySpec(kind="markov")))
    hazard = st.builds(
        lambda rate: model_factory_for(
            AvailabilitySpec(
                kind="correlated",
                parameters=(("domains", 2), ("mean_outage", 8), ("rate", rate)),
            )
        ),
        st.sampled_from([0.002, 0.02]),
    )
    return st.one_of(markov, hazard, trace_factory())


@st.composite
def runs(draw):
    """``(platform, application, block_size, seed)`` of one drawn run."""
    num_processors = draw(st.integers(2, 6))
    tasks = draw(st.integers(1, 5))
    # One channel starves any configuration of two or more workers; one per
    # processor serves every enrolled worker at once.
    ncom = draw(st.sampled_from([1, num_processors]))
    platform = availability_platform(
        PlatformSpec(num_processors=num_processors, ncom=ncom, wmin=draw(st.integers(1, 3))),
        num_tasks=tasks,
        seed=draw(st.integers(0, 2**16)),
        model_factory=draw(substrates()),
    )
    application = Application(tasks_per_iteration=tasks, iterations=draw(st.integers(1, 4)))
    block_size = draw(st.sampled_from([1, 3, 17, 4096]))
    return platform, application, block_size, draw(st.integers(0, 2**16))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(runs())
def test_default_engine_equals_slot_by_slot_path(run):
    platform, application, block_size, seed = run
    for name in HEURISTICS:
        fast, per_slot = (
            SimulationEngine(
                platform,
                application,
                create_scheduler(name),
                seed=seed,
                max_slots=MAX_SLOTS,
                block_size=block_size,
                record_events=record_events,
            ).run()
            for record_events in (False, True)
        )
        assert fast == per_slot, name
