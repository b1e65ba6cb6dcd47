"""Multi-heuristic one-pass driver: bit-identity against sequential runs.

The acceptance bar of the one-pass driver is *exactness*: for every contract
(``passive_between_rebuilds``) heuristic, driving N schedulers over one
shared availability realisation must produce ``SimulationResult``s equal —
field for field, iteration record for iteration record — to N sequential
``SimulationEngine.run()`` calls with the same seed — both the default
fast-path engine and the slot-by-slot reference path that
``record_events=True`` forces.  The suite pins that over every registered
passive heuristic plus the contract-flagged extension heuristics
(``RANDOM``, ``FAST``, ``STICKY``, ``THRESHOLD-IE(tau=0.5)``), in model and
replay-trace mode, on the golden-seed platform, and through the campaign
layer's ``ProcessPoolExecutor`` fan-out.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.cache import AnalysisContext
from repro.application import Application
from repro.availability.trace import AvailabilityTrace
from repro.exceptions import SimulationError
from repro.experiments.runner import run_campaign_spec
from repro.experiments.spec import CampaignSpec
from repro.platform import PlatformSpec, paper_platform
from repro.scheduling import PASSIVE_HEURISTICS, create_scheduler
from repro.simulation import (
    MultiHeuristicDriver,
    SampledTrace,
    SharedBlockSource,
    SimulationEngine,
)

from tests.simulation.test_golden_replay import REFERENCES

pytestmark = pytest.mark.slow

#: Every registered passive heuristic plus the contract-flagged extensions.
CONTRACT_HEURISTICS = list(PASSIVE_HEURISTICS) + [
    "RANDOM",
    "FAST",
    "STICKY",
    "THRESHOLD-IE(tau=0.5)",
]

MAX_SLOTS = 20_000


def golden_setup():
    """The golden-replay markov platform (20 workers, m=5)."""
    platform = paper_platform(
        PlatformSpec(num_processors=20, ncom=10, wmin=2), num_tasks=5, seed=123
    )
    return platform, Application(tasks_per_iteration=5, iterations=10)


def sequential_results(
    platform, application, names, *, seed, record_events=False, trace=None
):
    analysis = AnalysisContext(platform)
    results = []
    for name in names:
        engine = SimulationEngine(
            platform,
            application,
            create_scheduler(name),
            seed=seed,
            max_slots=MAX_SLOTS,
            analysis=analysis,
            record_events=record_events,
            trace=trace,
        )
        results.append(engine.run())
    return results


def one_pass_results(platform, application, names, *, seed, trace=None):
    driver = MultiHeuristicDriver(
        platform,
        application,
        [create_scheduler(name) for name in names],
        seed=seed,
        max_slots=MAX_SLOTS,
        trace=trace,
    )
    results = driver.run()
    assert len(driver.wall_seconds) == len(names)
    assert all(wall >= 0.0 for wall in driver.wall_seconds)
    return results


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("seed", [7, 1234])
def test_one_pass_bit_identical_to_sequential(reference, seed):
    platform, application = golden_setup()
    solo = sequential_results(
        platform, application, CONTRACT_HEURISTICS, seed=seed,
        record_events=REFERENCES[reference],
    )
    shared = one_pass_results(platform, application, CONTRACT_HEURISTICS, seed=seed)
    for name, expected, got in zip(CONTRACT_HEURISTICS, solo, shared):
        assert got == expected, name  # dataclass eq: every field + every record


def random_trace(num_processors, horizon, seed):
    rng = np.random.default_rng(seed)
    states = np.empty((num_processors, horizon), dtype=np.int8)
    for q in range(num_processors):
        col = 0
        while col < horizon:
            state = int(rng.choice([0, 0, 0, 1, 2]))
            run = int(rng.integers(5, 40))
            states[q, col : col + run] = state
            col += run
    return AvailabilityTrace(states)


@pytest.mark.parametrize("reference", REFERENCES)
def test_one_pass_trace_mode_bit_identical(reference):
    platform, application = golden_setup()
    trace = random_trace(20, MAX_SLOTS, seed=99)
    solo = sequential_results(
        platform, application, CONTRACT_HEURISTICS, seed=5,
        record_events=REFERENCES[reference], trace=trace,
    )
    shared = one_pass_results(
        platform, application, CONTRACT_HEURISTICS, seed=5, trace=trace
    )
    for name, expected, got in zip(CONTRACT_HEURISTICS, solo, shared):
        assert got == expected, name


def test_short_trace_raises_like_solo_engine():
    platform, application = golden_setup()
    trace = random_trace(20, 64, seed=3)  # far too short for ten iterations
    with pytest.raises(SimulationError, match="provide a longer trace"):
        one_pass_results(platform, application, ["IE", "IP"], seed=5, trace=trace)


def test_empty_scheduler_list_rejected():
    platform, application = golden_setup()
    with pytest.raises(SimulationError, match="at least one scheduler"):
        MultiHeuristicDriver(platform, application, [])


def sampled_source(platform, seed, *, block_size=4096, max_slots=1_000_000):
    """A source over the realisation a solo engine with *seed* samples."""
    trace = SampledTrace(platform, seed, max_slots)
    return SharedBlockSource(platform, trace, block_size=block_size, max_slots=max_slots)


class TestSharedBlockSource:
    def test_windows_are_aligned_and_cached(self):
        platform, _ = golden_setup()
        source = sampled_source(platform, 1, block_size=128, max_slots=1000)
        start, data = source.window(300)
        assert start == 256
        assert data.length == 128
        again_start, again = source.window(256)
        assert again_start == start and again is data  # same object, not a copy

    def test_model_mode_matches_solo_engine_blocks(self):
        platform, application = golden_setup()
        engine = SimulationEngine(
            platform, application, create_scheduler("IE"), seed=11,
            max_slots=2048, block_size=512,
        )
        engine._fetch_block(0)
        source = sampled_source(platform, 11, block_size=512, max_slots=2048)
        _, data = source.window(0)
        assert np.array_equal(data.block, engine._block)
        _, later = source.window(1536)
        engine._fetch_block(512)
        engine._fetch_block(1024)
        engine._fetch_block(1536)
        assert np.array_equal(later.block, engine._block)

    def test_release_below_frees_and_rejects_stale_windows(self):
        platform, _ = golden_setup()
        source = sampled_source(platform, 1, block_size=100, max_slots=1000)
        source.window(250)
        source.release_below(200)
        source.window(250)  # still live
        with pytest.raises(SimulationError, match="already released"):
            source.window(50)

    def test_out_of_range_slot_rejected(self):
        platform, _ = golden_setup()
        source = sampled_source(platform, 1, max_slots=500)
        with pytest.raises(SimulationError, match="outside the source's range"):
            source.window(500)

    def test_trace_processor_mismatch_rejected(self):
        platform, _ = golden_setup()
        with pytest.raises(SimulationError, match="processors"):
            SharedBlockSource(platform, trace=random_trace(3, 100, seed=0))


CAMPAIGN_HEURISTICS = ("IE", "IY", "RANDOM")

CAMPAIGN_SPEC = CampaignSpec(
    name="campaign",
    m_values=(4,),
    ncom_values=(5,),
    wmin_values=(1,),
    num_processors_values=(8,),
    heuristics=CAMPAIGN_HEURISTICS,
    scenarios_per_cell=1,
    trials_per_scenario=2,
    iterations=2,
    makespan_cap=20_000,
)


def _campaign_map(results):
    return {
        (r.heuristic,) + r.instance_key(): (
            r.makespan,
            r.success,
            r.completed_iterations,
            r.total_restarts,
            r.total_configuration_changes,
        )
        for r in results
    }


class TestCampaignOnePassRouting:
    def test_cell_matches_per_heuristic_campaigns(self):
        """A multi-heuristic cell (one-pass routed) equals solo campaigns."""
        spec = replace(CAMPAIGN_SPEC, name="multi")
        together = run_campaign_spec(spec)
        solo = {}
        for name in CAMPAIGN_HEURISTICS:
            solo.update(_campaign_map(run_campaign_spec(replace(spec, heuristics=(name,)))))
        assert _campaign_map(together) == solo

    def test_process_pool_fanout_matches_serial(self):
        spec = replace(CAMPAIGN_SPEC, name="pool")
        serial = run_campaign_spec(spec)
        parallel = run_campaign_spec(spec, n_jobs=2)
        assert _campaign_map(serial) == _campaign_map(parallel)

    def test_campaign_matches_per_slot_engine(self):
        """Bank replay + one-pass routing equals model-sampled per-slot runs."""
        spec = replace(CAMPAIGN_SPEC, name="s")
        results = run_campaign_spec(spec)
        expected = {}
        for scenario in spec.scenarios():
            platform = scenario.build_platform()
            application = scenario.build_application(iterations=spec.iterations)
            for trial in range(spec.trials_per_scenario):
                for name in CAMPAIGN_HEURISTICS:
                    result = SimulationEngine(
                        platform,
                        application,
                        create_scheduler(name),
                        seed=scenario.trial_seed(trial),
                        max_slots=spec.makespan_cap,
                        record_events=True,
                    ).run()
                    expected[(name, 4, scenario.params.ncom, scenario.params.wmin,
                              scenario.scenario_index, trial)] = (
                        result.makespan,
                        result.success,
                        result.completed_iterations,
                        result.total_restarts,
                        result.total_configuration_changes,
                    )
        assert len(results) == len(expected)
        assert _campaign_map(results) == expected
