"""Cross-layer determinism of the hazard substrates.

A hazard-bearing run is bit-identical between the solo engine, the
one-pass :class:`MultiHeuristicDriver`, a replayed :class:`SampledTrace`
and the engine's slot-by-slot path (``record_events=True``); and the
metrics plumbing observes the overlays (pool dips hitting whole domains in
the same slot, Monte Carlo bands over a correlated-outage campaign).
"""

import numpy as np
import pytest

from repro import api
from repro.analysis.cache import AnalysisContext
from repro.application import Application
from repro.availability.markov import MarkovAvailabilityModel
from repro.availability.registry import model_factory_for
from repro.experiments import run_campaign_spec
from repro.experiments.metrics import aggregate_metric_bands
from repro.experiments.scenarios import AvailabilitySpec
from repro.experiments.spec import CampaignSpec
from repro.hazards import DomainOutageProcess
from repro.platform import Platform, PlatformSpec, Processor
from repro.platform.builders import availability_platform
from repro.scheduling import create_scheduler
from repro.simulation import MultiHeuristicDriver, SampledTrace, SimulationEngine, simulate

pytestmark = pytest.mark.slow

MAX_SLOTS = 20_000

#: (kind, parameters, pinned solo makespans for ["IE", "RANDOM", "IP"]) on
#: the 12-worker golden platform below, seed 5.
SUBSTRATES = [
    ("correlated", dict(domains=3, rate=0.005, mean_outage=12), [341, 1111, 718]),
    ("churn", dict(mean_present=300, mean_absent=120, present0=0.75), [538, 811, 589]),
    ("degradation", dict(wear_rate=0.04), [48, 164, 267]),
]

HEURISTICS = ["IE", "RANDOM", "IP"]

#: api.run golden makespans (m=8, ncom=5, wmin=1, 10 workers, 5 iterations,
#: seed 11, platform seed 3) — one per substrate family, both engine paths.
API_GOLDENS = [
    ("correlated(domains=3, rate=0.01, mean_outage=10)", 323),
    ({"kind": "churn", "mean_present": 200, "mean_absent": 80, "present0": 0.7}, 579),
    ("degradation(wear_rate=0.05)", 68),
]


def hazard_platform(kind, params):
    spec = AvailabilitySpec(kind=kind, parameters=tuple(sorted(params.items())))
    return availability_platform(
        PlatformSpec(num_processors=12, ncom=6, wmin=1),
        num_tasks=6,
        seed=99,
        model_factory=model_factory_for(spec),
    )


@pytest.mark.parametrize("kind,params,golden", SUBSTRATES)
def test_solo_driver_and_bank_replay_are_bit_identical(kind, params, golden):
    platform = hazard_platform(kind, params)
    application = Application(tasks_per_iteration=6, iterations=8)
    analysis = AnalysisContext(platform)

    solo = [
        SimulationEngine(
            platform,
            application,
            create_scheduler(name),
            seed=5,
            max_slots=MAX_SLOTS,
            analysis=analysis,
        ).run()
        for name in HEURISTICS
    ]
    assert [result.makespan for result in solo] == golden

    shared = MultiHeuristicDriver(
        platform,
        application,
        [create_scheduler(name) for name in HEURISTICS],
        seed=5,
        max_slots=MAX_SLOTS,
    ).run()
    assert shared == solo

    sampled = SampledTrace(platform, 5, MAX_SLOTS)
    replayed = [
        SimulationEngine(
            platform,
            application,
            create_scheduler(name),
            seed=5,
            max_slots=MAX_SLOTS,
            analysis=analysis,
            trace=sampled,
        ).run()
        for name in HEURISTICS
    ]
    assert replayed == solo


@pytest.mark.parametrize("availability,golden", API_GOLDENS)
def test_engine_paths_agree_on_every_substrate(availability, golden):
    fast = api.run(
        m=8,
        heuristic="IE",
        ncom=5,
        wmin=1,
        num_processors=10,
        iterations=5,
        seed=11,
        platform_seed=3,
        availability=availability,
    )
    assert fast.makespan == golden
    per_slot = simulate(
        fast.platform, Application(tasks_per_iteration=8, iterations=5),
        create_scheduler("IE"), seed=11, max_slots=200_000, record_events=True,
    )
    assert per_slot == fast.simulation


class TestMetricsUnderHazards:
    def always_up_platform(self, num_workers, hazard):
        """Workers that never fail on their own: every DOWN is the overlay's."""
        stay_up = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        processors = [
            Processor(speed=1, capacity=4, availability=MarkovAvailabilityModel(stay_up))
            for _ in range(num_workers)
        ]
        return Platform(processors, ncom=4, tprog=3, tdata=2, hazard=hazard)

    def test_pool_dips_hit_whole_domains_in_the_same_slot(self):
        """Over an always-UP base, the collector's exact pool_down series
        only ever shows unions of whole outage domains."""
        num_workers = 10
        platform = self.always_up_platform(
            num_workers,
            DomainOutageProcess(num_workers, domains=2, rate=0.02, mean_outage=15.0),
        )
        result = api.run(
            m=4,
            heuristic="IE",
            iterations=40,
            seed=13,
            platform=platform,
            collect_metrics=True,
            metrics_stride=1,
            max_slots=MAX_SLOTS,
        )
        pool_down = result.metrics.series["pool_down"]
        observed = {int(value) for value in pool_down}
        # Domains of 5 workers each: the DOWN population is 0, one domain,
        # or both — never a partial domain.
        assert observed <= {0, 5, 10}
        assert max(observed) > 0, "expected at least one outage in the window"
        np.testing.assert_allclose(
            np.asarray(result.metrics.series["pool_up"]) + np.asarray(pool_down),
            num_workers,
        )

    def test_band_aggregation_over_a_correlated_campaign(self):
        spec = CampaignSpec(
            name="hazard-bands",
            m_values=(4,),
            ncom_values=(4,),
            wmin_values=(1,),
            num_processors_values=(8,),
            heuristics=("IE",),
            scenarios_per_cell=2,
            trials_per_scenario=2,
            iterations=5,
            makespan_cap=MAX_SLOTS,
            availability=AvailabilitySpec(
                kind="correlated",
                parameters=(("domains", 2), ("rate", 0.01), ("mean_outage", 10.0)),
            ),
            collect_metrics=True,
            metrics_stride=16,
        )
        results = run_campaign_spec(spec)
        assert len(results) == 4
        assert all(result.metrics is not None for result in results)
        bands = aggregate_metric_bands(results)
        assert len(bands) == 1
        band = bands[0]
        assert band.num_runs == 4
        for quantile, values in band.series["pool_up"].items():
            finite = [value for value in values if value == value]
            assert finite and all(0.0 <= value <= 8.0 for value in finite)

    def test_campaign_results_are_golden_seeded(self):
        """The same correlated campaign twice gives identical result rows."""
        def run_once():
            spec = CampaignSpec(
                name="hazard-pin",
                m_values=(4,),
                ncom_values=(4,),
                wmin_values=(1,),
                num_processors_values=(8,),
                heuristics=("IE", "IP"),
                scenarios_per_cell=1,
                trials_per_scenario=2,
                iterations=5,
                makespan_cap=MAX_SLOTS,
                availability=AvailabilitySpec(
                    kind="correlated",
                    parameters=(("domains", 2), ("rate", 0.01), ("mean_outage", 10.0)),
                ),
            )
            return [
                (result.heuristic, result.trial_index, result.success, result.makespan)
                for result in run_campaign_spec(spec)
            ]

        first = run_once()
        assert run_once() == first
