"""repro — reproduction of *Scheduling Tightly-Coupled Applications on Heterogeneous Desktop Grids*.

Casanova, Dufossé, Robert, Vivien — HCW 2013 (hal-00788606).

The library models tightly-coupled iterative master–worker applications
running on volatile, heterogeneous processors (desktop grids), and provides:

* the 3-state (UP / RECLAIMED / DOWN) availability substrate, including the
  Markov model of Section V and non-Markovian extensions;
* the platform / application models of Section III (bounded multi-port
  master, per-worker speeds and memory bounds);
* the analytical approximations of Theorem 5.1 (probability of success and
  conditional expected duration of a tightly-coupled computation) and the
  communication estimates of Section V-B;
* the off-line complexity artefacts of Section IV (ENCD reductions and exact
  solvers);
* the seventeen on-line heuristics of Section VI (RANDOM, the passive IP /
  IE / IY / IAY and the twelve proactive C-H heuristics);
* a faithful time-slot discrete-event simulator of the execution model;
* the experiment harness reproducing Tables I–II and Figure 2.

Quickstart
----------
The :mod:`repro.api` facade is the stable entry point:

>>> from repro import api
>>> result = api.run("Y-IE", m=5, ncom=10, wmin=1, seed=42)
>>> result.success, result.makespan  # doctest: +SKIP
(True, 153)

The building blocks remain importable directly:

>>> from repro import (Application, PlatformSpec, paper_platform,
...                    create_scheduler, simulate)
>>> platform = paper_platform(PlatformSpec(ncom=10, wmin=1), num_tasks=5, seed=1)
>>> app = Application(tasks_per_iteration=5, iterations=10)
>>> result = simulate(platform, app, create_scheduler("Y-IE"), seed=42)
>>> result.success, result.makespan  # doctest: +SKIP
(True, 153)
"""

from repro.analysis import (
    AnalysisContext,
    ConfigurationEstimate,
    ExpectationMode,
    GroupAnalysis,
    WorkerAnalysis,
    evaluate_configuration,
    get_criterion,
)
from repro.application import Application, Configuration
from repro.availability import (
    AvailabilityModel,
    AvailabilityTrace,
    MarkovAvailabilityModel,
    SemiMarkovAvailabilityModel,
    TraceAvailabilityModel,
    random_markov_model,
    random_markov_models,
)
from repro.hazards import (
    ChurnProcess,
    DegradationAvailabilityModel,
    DomainOutageProcess,
    GroupHazardProcess,
)
from repro.exceptions import (
    InfeasibleProblemError,
    InvalidApplicationError,
    InvalidConfigurationError,
    InvalidModelError,
    InvalidPlatformError,
    ReproError,
    SchedulingError,
    SimulationError,
)
from repro.experiments import (
    ExperimentScenario,
    ScenarioParameters,
    figure2_series,
    run_instance,
    summarize_results,
)
from repro.offline import (
    ENCDInstance,
    OfflineProblem,
    encd_to_offline_mu1,
    encd_to_offline_mu_inf,
    solve_offline_mu1,
    solve_offline_mu_inf,
)
from repro.platform import Platform, PlatformSpec, Processor, paper_platform, uniform_platform
from repro.scheduling import (
    ALL_HEURISTICS,
    EXTENSION_HEURISTIC_NAMES,
    PASSIVE_HEURISTICS,
    PROACTIVE_HEURISTICS,
    Scheduler,
    available_heuristics,
    canonical_heuristic,
    create_scheduler,
    register_heuristic,
)
from repro.simulation import (
    SimulationEngine,
    SimulationResult,
    render_gantt,
    simulate,
)
from repro.types import DOWN, RECLAIMED, UP, ProcessorState

# The stable facade (repro.api.run / sweep / compare); imported last so the
# submodule can build on everything above.
from repro import api

__version__ = "1.0.0"

__all__ = [
    # availability
    "AvailabilityModel",
    "MarkovAvailabilityModel",
    "SemiMarkovAvailabilityModel",
    "TraceAvailabilityModel",
    "AvailabilityTrace",
    "random_markov_model",
    "random_markov_models",
    # hazards
    "GroupHazardProcess",
    "DomainOutageProcess",
    "ChurnProcess",
    "DegradationAvailabilityModel",
    # platform / application
    "Processor",
    "Platform",
    "PlatformSpec",
    "paper_platform",
    "uniform_platform",
    "Application",
    "Configuration",
    # analysis
    "AnalysisContext",
    "GroupAnalysis",
    "WorkerAnalysis",
    "ExpectationMode",
    "ConfigurationEstimate",
    "evaluate_configuration",
    "get_criterion",
    # offline
    "OfflineProblem",
    "ENCDInstance",
    "encd_to_offline_mu1",
    "encd_to_offline_mu_inf",
    "solve_offline_mu1",
    "solve_offline_mu_inf",
    # facade
    "api",
    # scheduling
    "Scheduler",
    "create_scheduler",
    "register_heuristic",
    "available_heuristics",
    "canonical_heuristic",
    "ALL_HEURISTICS",
    "PASSIVE_HEURISTICS",
    "PROACTIVE_HEURISTICS",
    "EXTENSION_HEURISTIC_NAMES",
    # simulation
    "SimulationEngine",
    "SimulationResult",
    "simulate",
    "render_gantt",
    # experiments
    "ScenarioParameters",
    "ExperimentScenario",
    "run_instance",
    "summarize_results",
    "figure2_series",
    # types / errors
    "ProcessorState",
    "UP",
    "RECLAIMED",
    "DOWN",
    "ReproError",
    "InvalidModelError",
    "InvalidPlatformError",
    "InvalidApplicationError",
    "InvalidConfigurationError",
    "InfeasibleProblemError",
    "SimulationError",
    "SchedulingError",
    "__version__",
]
