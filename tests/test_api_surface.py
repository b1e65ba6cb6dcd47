"""API-surface snapshot: the public names of ``repro`` and ``repro.api``.

These lists are a deliberate contract.  If this test fails, either restore
the name (accidental breakage) or — for an intentional API change — update
the snapshot here *and* the README's Public API section in the same change.
The lint lane of CI runs this file on its own so surface regressions fail
fast, before the full matrix.
"""

import repro
import repro.api

API_SURFACE = [
    "CampaignSpec",
    "ComparisonResult",
    "RunResult",
    "SweepResult",
    "availability_models",
    "available_heuristics",
    "builtin_spec",
    "canonical_heuristic",
    "compare",
    "create_scheduler",
    "heuristic_info",
    "heuristics",
    "load_spec",
    "run",
    "sweep",
]

PACKAGE_SURFACE = [
    "ALL_HEURISTICS",
    "AnalysisContext",
    "Application",
    "AvailabilityModel",
    "AvailabilityTrace",
    "ChurnProcess",
    "Configuration",
    "ConfigurationEstimate",
    "DOWN",
    "DegradationAvailabilityModel",
    "DomainOutageProcess",
    "ENCDInstance",
    "EXTENSION_HEURISTIC_NAMES",
    "ExpectationMode",
    "ExperimentScenario",
    "GroupAnalysis",
    "GroupHazardProcess",
    "InfeasibleProblemError",
    "InvalidApplicationError",
    "InvalidConfigurationError",
    "InvalidModelError",
    "InvalidPlatformError",
    "MarkovAvailabilityModel",
    "OfflineProblem",
    "PASSIVE_HEURISTICS",
    "PROACTIVE_HEURISTICS",
    "Platform",
    "PlatformSpec",
    "Processor",
    "ProcessorState",
    "RECLAIMED",
    "ReproError",
    "ScenarioParameters",
    "Scheduler",
    "SchedulingError",
    "SemiMarkovAvailabilityModel",
    "SimulationEngine",
    "SimulationError",
    "SimulationResult",
    "TraceAvailabilityModel",
    "UP",
    "WorkerAnalysis",
    "__version__",
    "api",
    "available_heuristics",
    "canonical_heuristic",
    "create_scheduler",
    "encd_to_offline_mu1",
    "encd_to_offline_mu_inf",
    "evaluate_configuration",
    "figure2_series",
    "get_criterion",
    "paper_platform",
    "random_markov_model",
    "random_markov_models",
    "register_heuristic",
    "render_gantt",
    "run_instance",
    "simulate",
    "solve_offline_mu1",
    "solve_offline_mu_inf",
    "summarize_results",
    "uniform_platform",
]


def test_api_facade_surface_is_pinned():
    assert sorted(repro.api.__all__) == API_SURFACE


def test_package_surface_is_pinned():
    assert sorted(repro.__all__) == PACKAGE_SURFACE


def test_hazard_substrates_are_discoverable():
    kinds = {info.name for info in repro.api.availability_models()}
    assert {"degradation", "correlated", "churn"} <= kinds
    names = repro.api.available_heuristics()
    assert "IE" in names and "RANDOM" in names


def test_every_advertised_name_exists():
    for name in repro.api.__all__:
        assert hasattr(repro.api, name), f"repro.api.__all__ advertises missing {name!r}"
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ advertises missing {name!r}"
