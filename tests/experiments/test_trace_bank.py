"""Tests for the shared per-(scenario, trial) sampled availability trace."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.experiments.runner import run_instance
from repro.experiments.scenarios import (
    AvailabilitySpec,
    ExperimentScenario,
    ScenarioParameters,
)
from repro.simulation import SampledTrace


#: The paper's Markov grid, and a hazard substrate whose outages act
#: inside the 600-slot horizon.
SUBSTRATES = {
    "markov": None,
    "correlated": AvailabilitySpec(
        kind="correlated",
        parameters=(("domains", 3), ("mean_outage", 10), ("rate", 0.01)),
    ),
}


def make_scenario(num_processors=10, availability=None):
    params = ScenarioParameters(m=5, ncom=5, wmin=2, num_processors=num_processors)
    return ExperimentScenario(
        params=params, scenario_index=0, campaign="bank-tests", availability=availability
    )


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
def test_bank_trace_matches_direct_sampling(substrate):
    """The trace replays exactly what the engine would sample for the seed."""
    scenario = make_scenario(availability=SUBSTRATES[substrate])
    platform = scenario.build_platform()
    seed = scenario.trial_seed(0)
    trace = SampledTrace(platform, seed, 600)
    assert trace.num_processors == platform.num_processors
    assert trace.horizon == 600

    # Reference, on a platform of its own: the run's streams are the
    # children of SeedSequence(one draw of the seed): one per worker, then
    # the scheduler's, then the hazard's.  Per-worker streams are consumed
    # model by model, slot by slot; the hazard child feeds the overlay.
    reference_platform = scenario.build_platform()
    m = reference_platform.num_processors
    entropy = int(np.random.default_rng(seed).integers(0, 2**62))
    children = [
        np.random.default_rng(child) for child in np.random.SeedSequence(entropy).spawn(m + 2)
    ]
    reference = np.empty((m, 600), dtype=np.int8)
    for worker, (processor, rng) in enumerate(zip(reference_platform.processors, children)):
        model = processor.availability
        model.reset()
        current = model.initial_state(rng)
        reference[worker, 0] = int(current)
        for slot in range(1, 600):
            current = model.next_state(current, rng)
            reference[worker, slot] = int(current)
    hazard = reference_platform.hazard
    assert (hazard is not None) == (substrate != "markov")
    if hazard is not None:
        base = reference.copy()
        hazard.reset(children[m + 1])
        hazard.overlay(0, reference)
        assert (reference != base).any()

    # Requests of uneven sizes exercise the lazy sampling.
    assert np.array_equal(trace.block(0, 5), reference[:, 0:5])
    assert np.array_equal(trace.block(5, 130), reference[:, 5:130])
    assert np.array_equal(trace.block(130, 600), reference[:, 130:600])
    # Re-reads hit the materialised buffer and stay identical.
    assert np.array_equal(trace.block(0, 600), reference)


def test_bank_trace_rejects_out_of_range_blocks():
    scenario = make_scenario()
    platform = scenario.build_platform()
    trace = SampledTrace(platform, scenario.trial_seed(0), 100)
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
            trace=SampledTrace(platform, seed, run["makespan_cap"]),
        )
        direct_dict, replay_dict = direct.as_dict(), replayed.as_dict()
        direct_dict.pop("wall_time_seconds")
        replay_dict.pop("wall_time_seconds")
        assert direct_dict == replay_dict, heuristic

