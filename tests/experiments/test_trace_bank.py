"""Tests for the shared per-(scenario, trial) sampled availability trace."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.experiments.runner import run_instance
from repro.experiments.scenarios import ExperimentScenario, ScenarioParameters
from repro.simulation import SampledTrace
from repro.utils.rng import derive_run_streams


def make_scenario(num_processors=10):
    params = ScenarioParameters(m=5, ncom=5, wmin=2, num_processors=num_processors)
    return ExperimentScenario(params=params, scenario_index=0, campaign="bank-tests")


def test_bank_trace_matches_direct_sampling():
    """The trace replays exactly what the engine would sample for the seed."""
    scenario = make_scenario()
    platform = scenario.build_platform()
    seed = scenario.trial_seed(0)
    trace = SampledTrace(platform, derive_run_streams(seed, platform.num_processors), 600)
    assert trace.num_processors == platform.num_processors
    assert trace.horizon == 600

    # Reference: per-worker streams consumed model by model, slot by slot.
    rngs, _ = derive_run_streams(seed, platform.num_processors)
    reference = np.empty((platform.num_processors, 600), dtype=np.int8)
    for worker, (processor, rng) in enumerate(zip(platform.processors, rngs)):
        model = processor.availability
        model.reset()
        current = model.initial_state(rng)
        reference[worker, 0] = int(current)
        for slot in range(1, 600):
            current = model.next_state(current, rng)
            reference[worker, slot] = int(current)

    # Requests of uneven sizes exercise the lazy sampling.
    assert np.array_equal(trace.block(0, 5), reference[:, 0:5])
    assert np.array_equal(trace.block(5, 130), reference[:, 5:130])
    assert np.array_equal(trace.block(130, 600), reference[:, 130:600])
    # Re-reads hit the materialised buffer and stay identical.
    assert np.array_equal(trace.block(0, 600), reference)


def test_bank_trace_rejects_out_of_range_blocks():
    scenario = make_scenario()
    platform = scenario.build_platform()
    streams = derive_run_streams(scenario.trial_seed(0), platform.num_processors)
    trace = SampledTrace(platform, streams, 100)
    with pytest.raises(SimulationError):
        trace.block(0, 101)
    with pytest.raises(SimulationError):
        trace.block(-1, 10)


def test_run_instance_with_bank_trace_is_bit_identical():
    scenario = make_scenario()
    platform = scenario.build_platform()
    run = dict(iterations=3, makespan_cap=30_000)
    seed = scenario.trial_seed(0)
    for heuristic in ("RANDOM", "IE", "Y-IE"):
        direct = run_instance(scenario, heuristic, 0, **run, platform=platform)
        replayed = run_instance(
            scenario, heuristic, 0, **run, platform=platform,
            trace=SampledTrace(
                platform,
                derive_run_streams(seed, platform.num_processors),
                run["makespan_cap"],
            ),
        )
        direct_dict, replay_dict = direct.as_dict(), replayed.as_dict()
        direct_dict.pop("wall_time_seconds")
        replay_dict.pop("wall_time_seconds")
        assert direct_dict == replay_dict, heuristic

