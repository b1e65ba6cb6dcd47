"""``repro.api`` — the one stable, documented entry point to the library.

The engine, the experiment runner and the campaign subsystem are all
reachable through three verbs, so callers never need deep imports:

* :func:`run` — simulate one heuristic on one platform, returning a typed
  :class:`RunResult`;
* :func:`sweep` — execute (or resume) a whole declarative campaign — a
  :class:`~repro.experiments.spec.CampaignSpec`, a spec file path, a
  built-in name or a plain mapping — optionally against a persistent result
  store, returning a :class:`SweepResult`;
* :func:`compare` — head-to-head evaluation of several heuristics on a
  common scenario grid with the paper's paired-trial metrics, returning a
  :class:`ComparisonResult`.

Component discovery goes through the same facade: :func:`heuristics` and
:func:`availability_models` list the registered components (the CLI's
``repro heuristics`` / ``repro models`` render exactly these), and every
heuristic argument accepts the parameterized expression grammar
(``"THRESHOLD-IE(tau=0.5)"``, ``"STICKY(patience=3)"``).  Availability
arguments accept the same grammar over substrate names
(``"correlated(domains=4, rate=0.002)"``, ``"degradation(wear_rate=0.05)"``).

Quickstart
----------
>>> from repro import api
>>> api.run("Y-IE", m=5, ncom=10, wmin=1, seed=42).makespan  # doctest: +SKIP
153
>>> comparison = api.compare(["IE", "RANDOM"], m=4, scenarios=1, trials=2)
>>> comparison.best()  # doctest: +SKIP
'IE'
>>> result = api.sweep("smoke", store="runs/smoke")  # doctest: +SKIP
>>> print(result.table())  # doctest: +SKIP

The public names of this module are pinned by the API-surface snapshot test
(``tests/test_api_surface.py``); additions are deliberate, removals break CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.cache import AnalysisContext
from repro.analysis.group import ExpectationMode
from repro.application.application import Application
from repro.availability.registry import AVAILABILITY_MODELS
from repro.components import ComponentInfo
from repro.exceptions import ExperimentError
from repro.experiments.metrics import HeuristicSummary, filter_results, summarize_results
from repro.experiments.runner import CellProgress, InstanceResult, run_campaign_spec
from repro.experiments.scenarios import AvailabilitySpec, ScenarioParameters, build_platform
from repro.experiments.spec import (
    BUILTIN_SPEC_NAMES,
    CampaignSpec,
    builtin_spec,
    load_spec,
)
from repro.experiments.store import ResultStore
from repro.experiments.tables import format_spec_report, format_summaries
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.platform.platform import Platform
from repro.scheduling.registry import (
    HEURISTICS,
    available_heuristics,
    canonical_heuristic,
    create_scheduler,
    heuristic_info,
)
from repro.simulation.engine import SimulationEngine
from repro.simulation.results import SimulationResult

__all__ = [
    "run",
    "sweep",
    "compare",
    "heuristics",
    "availability_models",
    "RunResult",
    "SweepResult",
    "ComparisonResult",
    "CampaignSpec",
    "create_scheduler",
    "canonical_heuristic",
    "available_heuristics",
    "heuristic_info",
    "builtin_spec",
    "load_spec",
]

AvailabilityLike = Union[None, AvailabilitySpec, Mapping, str]
SpecLike = Union[CampaignSpec, Mapping, str, Path]


# ----------------------------------------------------------------------
# Typed result objects
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunResult:
    """Outcome of one :func:`run` call.

    Thin, stable view over the engine's
    :class:`~repro.simulation.results.SimulationResult` (kept in
    ``simulation`` for everything else: per-iteration timings, restart
    counts per worker, ...).
    """

    heuristic: str
    seed: int
    success: bool
    makespan: Optional[int]
    completed_iterations: int
    total_restarts: int
    total_configuration_changes: int
    simulation: SimulationResult
    platform: Platform
    #: Sampled per-slot series (:class:`~repro.metrics.collector.RunMetrics`)
    #: when the run was invoked with ``collect_metrics=True``, else ``None``.
    metrics: Optional[RunMetrics] = None


@dataclass
class SweepResult:
    """Results of one :func:`sweep` call (one shard's worth of a campaign)."""

    spec: CampaignSpec
    results: List[InstanceResult]
    shard: Tuple[int, int] = (1, 1)

    def __len__(self) -> int:
        return len(self.results)

    def summaries(
        self,
        *,
        m: Optional[int] = None,
        ncom: Optional[int] = None,
        wmin: Optional[int] = None,
        num_processors: Optional[int] = None,
    ) -> List[HeuristicSummary]:
        """Table-I-style rows for one grid slice (all results by default)."""
        selected = filter_results(
            self.results, m=m, ncom=ncom, wmin=wmin, num_processors=num_processors
        )
        return summarize_results(selected)

    def table(self) -> str:
        """The full, per-slice report (same rendering as ``repro campaign``)."""
        return format_spec_report(self.results, self.spec)


@dataclass
class ComparisonResult:
    """Head-to-head metrics of one :func:`compare` call."""

    spec: CampaignSpec
    results: List[InstanceResult]
    summaries: List[HeuristicSummary]
    reference: str = "IE"

    def ranking(self) -> List[Tuple[str, Optional[float]]]:
        """Heuristics best-first with their %diff vs the reference."""
        return [(summary.heuristic, summary.pct_diff) for summary in self.summaries]

    def best(self) -> str:
        """The best-ranked heuristic (lowest %diff)."""
        return self.summaries[0].heuristic

    def table(self) -> str:
        """Formatted paper-style summary table of the comparison."""
        title = f"compare — m={self.spec.m_values[0]}, {len(self.results)} instances"
        return format_summaries(self.summaries, title=title)


# ----------------------------------------------------------------------
# Internal coercion helpers
# ----------------------------------------------------------------------
def _as_availability(availability: AvailabilityLike) -> Optional[AvailabilitySpec]:
    if availability is None or isinstance(availability, AvailabilitySpec):
        return availability
    if isinstance(availability, str):
        # The registry expression grammar: "correlated(domains=4, rate=0.002)",
        # "semi-markov", "degradation(wear_rate=0.05)", ...
        resolved = AVAILABILITY_MODELS.resolve(availability)
        return AvailabilitySpec(kind=resolved.name, parameters=tuple(resolved.arguments))
    if isinstance(availability, Mapping):
        return AvailabilitySpec.from_mapping(availability)
    raise ExperimentError(
        f"availability must be None, an AvailabilitySpec, a mapping or an "
        f"expression string, got {type(availability).__name__}"
    )


def _as_spec(spec: SpecLike) -> CampaignSpec:
    if isinstance(spec, CampaignSpec):
        return spec
    if isinstance(spec, Mapping):
        return CampaignSpec.from_dict(spec)
    if isinstance(spec, (str, Path)):
        text = str(spec)
        if text in BUILTIN_SPEC_NAMES:
            return builtin_spec(text)
        if Path(text).exists() or text.lower().endswith((".toml", ".json")):
            return load_spec(text)
        raise ExperimentError(
            f"unknown campaign spec {text!r}: not a built-in "
            f"({list(BUILTIN_SPEC_NAMES)}) and no such file"
        )
    raise ExperimentError(
        f"spec must be a CampaignSpec, mapping, file path or built-in name, "
        f"got {type(spec).__name__}"
    )


# ----------------------------------------------------------------------
# The three verbs
# ----------------------------------------------------------------------
def run(
    heuristic: str = "IE",
    *,
    platform: Optional[Platform] = None,
    m: int = 5,
    ncom: int = 10,
    wmin: int = 1,
    num_processors: int = 20,
    availability: AvailabilityLike = None,
    iterations: int = 10,
    seed: int = 0,
    platform_seed: Optional[int] = None,
    max_slots: int = 200_000,
    estimator: str = "paper",
    collect_metrics: bool = False,
    metrics_stride: int = 64,
) -> RunResult:
    """Simulate one heuristic on one platform and return a :class:`RunResult`.

    *heuristic* is any registered name or parameterized expression.  Pass a
    prebuilt *platform*, or let the facade draw a paper-methodology platform
    from ``(m, ncom, wmin, num_processors)`` — optionally on a non-Markov
    substrate via *availability* (a mapping like ``{"kind": "semi-markov"}``
    or an :class:`~repro.experiments.scenarios.AvailabilitySpec`).

    *seed* drives the simulation; *platform_seed* (default: *seed*) drives
    the platform draw, so the same platform can be re-simulated under many
    seeds.  Results are deterministic in ``(platform, heuristic, seed)``.

    With ``collect_metrics=True`` the run additionally samples per-slot
    series (pool availability, active set, work, communication backlog)
    every *metrics_stride* slots into ``RunResult.metrics`` — a
    :class:`~repro.metrics.collector.RunMetrics` — without changing any
    other field of the result.

    Example:
        >>> from repro import api
        >>> result = api.run("IE", m=4, ncom=5, wmin=1, seed=1)
        >>> result.success, result.makespan, result.total_restarts
        (True, 327, 8)
    """
    availability_spec = _as_availability(availability)
    if platform is None:
        platform = build_platform(
            ScenarioParameters(m=m, ncom=ncom, wmin=wmin, num_processors=num_processors),
            availability_spec,
            seed=seed if platform_seed is None else platform_seed,
        )
    elif availability_spec is not None:
        raise ExperimentError("pass either platform or availability, not both")
    scheduler = create_scheduler(heuristic)
    application = Application(tasks_per_iteration=m, iterations=iterations)
    analysis = AnalysisContext(platform, mode=ExpectationMode(estimator))
    collector = MetricsCollector(metrics_stride) if collect_metrics else None
    engine = SimulationEngine(
        platform,
        application,
        scheduler,
        seed=seed,
        max_slots=max_slots,
        analysis=analysis,
        metrics=collector,
    )
    result = engine.run()
    return RunResult(
        metrics=collector.result() if collector is not None else None,
        heuristic=scheduler.name,
        seed=seed,
        success=result.success,
        makespan=result.makespan,
        completed_iterations=result.completed_iterations,
        total_restarts=result.total_restarts,
        total_configuration_changes=result.total_configuration_changes,
        simulation=result,
        platform=platform,
    )


def sweep(
    spec: SpecLike,
    *,
    store: Union[None, str, Path, ResultStore] = None,
    shard: Tuple[int, int] = (1, 1),
    jobs: int = 1,
    max_cells: Optional[int] = None,
    collect_metrics: Optional[bool] = None,
    metrics_stride: Optional[int] = None,
    progress: Optional[Callable[[CellProgress], None]] = None,
) -> SweepResult:
    """Run (or resume) a declarative campaign and return a :class:`SweepResult`.

    *spec* may be a :class:`~repro.experiments.spec.CampaignSpec`, a mapping,
    a spec-file path (TOML/JSON) or a built-in name (``"paper"``,
    ``"smoke"``, ...).  *store* — a directory path or an open
    :class:`~repro.experiments.store.ResultStore` — makes the sweep durable:
    completed cells are skipped on re-invocation and appended as they
    finish.  *shard* ``(i, N)`` runs one deterministic partition for
    multi-machine campaigns.  Trials whose cells cover two or more
    passive-contract heuristics are advanced in one multi-heuristic pass.
    *collect_metrics* / *metrics_stride* attach a per-run metrics collector
    (``InstanceResult.metrics``); ``None`` defers to the spec's own
    settings.  These are runtime options: metric series are volatile store
    fields, outside the spec identity.

    Example:
        >>> from repro import api
        >>> result = api.sweep("smoke")
        >>> result.spec.name, len(result.results)
        ('smoke', 4)
    """
    campaign_spec = _as_spec(spec)
    owned_store: Optional[ResultStore] = None
    result_store: Optional[ResultStore] = None
    if isinstance(store, ResultStore):
        result_store = store
    elif store is not None:
        owned_store = ResultStore.create(store, campaign_spec)
        result_store = owned_store
    try:
        results = run_campaign_spec(
            campaign_spec,
            store=result_store,
            shard=shard,
            n_jobs=jobs,
            max_cells=max_cells,
            collect_metrics=collect_metrics,
            metrics_stride=metrics_stride,
            cell_progress=progress,
        )
    finally:
        if owned_store is not None:
            owned_store.close()
    return SweepResult(spec=campaign_spec, results=list(results), shard=shard)


def compare(
    heuristics: Sequence[str],
    *,
    m: int = 5,
    ncom: int = 10,
    wmin: int = 1,
    num_processors: int = 20,
    availability: AvailabilityLike = None,
    scenarios: int = 2,
    trials: int = 2,
    iterations: int = 10,
    makespan_cap: int = 150_000,
    label: str = "compare",
    estimator: str = "paper",
    jobs: int = 1,
    reference: Optional[str] = None,
) -> ComparisonResult:
    """Evaluate several heuristics head-to-head on a common scenario grid.

    Every heuristic sees exactly the same availability realisations (the
    paper's paired-trial methodology), so the returned
    :class:`ComparisonResult` ranks them by %diff against *reference* —
    the paper's ``IE`` when it is among the compared heuristics, otherwise
    the first heuristic listed — with sharply reduced variance.
    *heuristics* accepts parameterized expressions, e.g.
    ``api.compare(["IE", "THRESHOLD-IE(tau=0.7)"])``.

    Example:
        >>> from repro import api
        >>> comparison = api.compare(["IE", "RANDOM"], m=4, ncom=5, wmin=1)
        >>> comparison.best()
        'IE'
    """
    availability_spec = _as_availability(availability)
    spec = CampaignSpec(
        name=label,
        m_values=(m,),
        ncom_values=(ncom,),
        wmin_values=(wmin,),
        num_processors_values=(num_processors,),
        heuristics=tuple(heuristics),
        scenarios_per_cell=scenarios,
        trials_per_scenario=trials,
        iterations=iterations,
        makespan_cap=makespan_cap,
        availability=availability_spec if availability_spec is not None else AvailabilitySpec(),
        estimator=estimator,
    )
    if reference is None:
        reference = "IE" if "IE" in spec.heuristics else spec.heuristics[0]
    else:
        reference = canonical_heuristic(reference)
        if reference not in spec.heuristics:
            raise ExperimentError(
                f"reference heuristic {reference!r} is not among the compared "
                f"heuristics {list(spec.heuristics)}"
            )
    results = run_campaign_spec(spec, n_jobs=jobs)
    summaries = summarize_results(results, reference=reference)
    return ComparisonResult(
        spec=spec, results=list(results), summaries=summaries, reference=reference
    )


# ----------------------------------------------------------------------
# Component discovery
# ----------------------------------------------------------------------
def heuristics(family: Optional[str] = None) -> List[ComponentInfo]:
    """Metadata for every registered heuristic (optionally one family).

    Example:
        >>> from repro import api
        >>> [info.name for info in api.heuristics(family="baseline")]
        ['RANDOM']
    """
    return [HEURISTICS.get(name) for name in available_heuristics(family=family)]


def availability_models() -> List[ComponentInfo]:
    """Metadata for every registered availability-model substrate.

    Example:
        >>> from repro import api
        >>> names = [info.name for info in api.availability_models()]
        >>> "markov" in names and "correlated" in names
        True
    """
    return list(AVAILABILITY_MODELS.infos())
