"""Running instances and whole campaigns.

The unit of work is the *instance*: one (scenario, trial, heuristic) triple.
Three properties of the runner are important for faithfulness and efficiency:

* **Paired availability realisations** — for a given (scenario, trial), every
  heuristic sees exactly the same availability realisation:
  :class:`~repro.simulation.blocks.SampledTrace` derives the per-worker
  availability streams deterministically from the trial seed, independently
  of the scheduler's own stream.  This matches the
  paper's per-trial comparison of heuristics and sharply reduces the variance
  of %diff/%wins at small trial counts.
* **One sampled realisation per trial** — the runner samples each
  (scenario, trial) availability realisation *once*, as a
  :class:`~repro.simulation.blocks.SampledTrace`, and replays it for every
  heuristic instead of re-sampling the identical chains per heuristic.  A
  solo engine run samples through the same class from the same seed, so
  replayed runs are bit-identical to directly sampled ones.
* **Shared analysis** — all heuristics and trials of a scenario share one
  :class:`AnalysisContext` (the Theorem 5.1 quantities depend only on the
  platform), which is what makes the proactive heuristics affordable.
* **One-pass multi-heuristic cells** — when a trial evaluates two or more
  passive-contract heuristics, they are advanced *simultaneously* by a
  :class:`~repro.simulation.multirun.MultiHeuristicDriver` over one shared
  block prefetch instead of replaying the realisation once per heuristic.
  Results stay bit-identical (the driver's engines take exactly the
  decisions a solo run would); only the heuristic-independent work is paid
  once.

Campaigns can fan out over processes (``n_jobs > 1``); each process receives
self-contained scenario descriptions and rebuilds platforms (and their
realisations) locally, so no large objects cross process boundaries.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.cache import AnalysisContext
from repro.analysis.group import ExpectationMode
from repro.exceptions import ExperimentError
from repro.experiments.scenarios import ExperimentScenario
from repro.experiments.spec import CampaignCell, CampaignSpec
from repro.metrics.collector import DEFAULT_STRIDE, MetricsCollector
from repro.scheduling.registry import create_scheduler
from repro.simulation.blocks import SampledTrace
from repro.simulation.engine import SimulationEngine
from repro.simulation.multirun import MultiHeuristicDriver
from repro.simulation.results import SimulationResult
from repro.telemetry.tracer import Tracer, shared_tracer

__all__ = [
    "InstanceResult",
    "CellProgress",
    "run_instance",
    "run_campaign_spec",
]


@dataclass(frozen=True)
class InstanceResult:
    """Outcome of one (scenario, trial, heuristic) problem instance."""

    heuristic: str
    m: int
    ncom: int
    wmin: int
    scenario_index: int
    trial_index: int
    success: bool
    makespan: Optional[int]
    completed_iterations: int
    total_restarts: int
    total_configuration_changes: int
    wall_time_seconds: float = 0.0
    #: Platform size of the scenario (the paper's grid is always 20; spec
    #: campaigns may sweep it).  Not part of the legacy scenario/instance
    #: keys — reports group by it explicitly instead.
    num_processors: int = 20
    #: Sampled per-slot series of the run as a JSON-ready payload
    #: (:meth:`~repro.metrics.collector.RunMetrics.as_dict`), present only
    #: when the campaign ran with a metrics collector attached.  Volatile
    #: like the wall time: stores treat records with and without series as
    #: the same result.
    metrics: Optional[dict] = None

    # ------------------------------------------------------------------
    def scenario_key(self) -> Tuple[int, int, int, int]:
        """Identifies the scenario (platform) this instance ran on."""
        return (self.m, self.ncom, self.wmin, self.scenario_index)

    def instance_key(self) -> Tuple[int, int, int, int, int]:
        """Identifies the (scenario, trial) problem instance."""
        return (self.m, self.ncom, self.wmin, self.scenario_index, self.trial_index)

    def as_dict(self) -> dict:
        payload = {
            "heuristic": self.heuristic,
            "m": self.m,
            "ncom": self.ncom,
            "wmin": self.wmin,
            "scenario_index": self.scenario_index,
            "trial_index": self.trial_index,
            "success": self.success,
            "makespan": self.makespan,
            "completed_iterations": self.completed_iterations,
            "total_restarts": self.total_restarts,
            "total_configuration_changes": self.total_configuration_changes,
            "wall_time_seconds": self.wall_time_seconds,
            "num_processors": self.num_processors,
        }
        # Omitted (not null) when absent, so records written before the
        # metrics layer existed serialise byte-identically.
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "InstanceResult":
        return cls(**payload)

    @classmethod
    def from_simulation(
        cls,
        scenario: ExperimentScenario,
        trial: int,
        result: SimulationResult,
        wall_time: float,
        metrics: Optional[dict] = None,
    ) -> "InstanceResult":
        return cls(
            metrics=metrics,
            heuristic=result.scheduler,
            m=scenario.params.m,
            ncom=scenario.params.ncom,
            wmin=scenario.params.wmin,
            scenario_index=scenario.scenario_index,
            trial_index=trial,
            success=result.success,
            makespan=result.makespan,
            completed_iterations=result.completed_iterations,
            total_restarts=result.total_restarts,
            total_configuration_changes=result.total_configuration_changes,
            wall_time_seconds=wall_time,
            num_processors=scenario.params.num_processors,
        )


@dataclass(frozen=True)
class CellProgress:
    """Per-cell completion report for campaign progress callbacks.

    ``done``/``total`` count cells of the running process's share of the
    campaign (its shard), including cells skipped because the result store
    already held them — so a resumed run reports accurate remaining-work
    totals instead of restarting the count from zero.
    """

    done: int
    total: int
    scenario: str
    trial: int
    heuristic: str
    skipped: bool = False


# ----------------------------------------------------------------------
# Single instance / scenario execution
# ----------------------------------------------------------------------
def _tracer_for(trace_dir: Optional[str]) -> Optional[Tracer]:
    """The process-wide :class:`Tracer` for *trace_dir* (``None`` -> ``None``).

    Delegates to :func:`repro.telemetry.shared_tracer` so the runner, the
    engines it drives and any enclosing service worker all append through
    one buffered handle per process.
    """
    if trace_dir is None:
        return None
    return shared_tracer(trace_dir)


def run_instance(
    scenario: ExperimentScenario,
    heuristic: str,
    trial: int,
    *,
    iterations: int,
    makespan_cap: int,
    analysis: Optional[AnalysisContext] = None,
    platform=None,
    trace=None,
    mode: ExpectationMode = ExpectationMode.PAPER,
    collect_metrics: bool = False,
    metrics_stride: int = DEFAULT_STRIDE,
    tracer: Optional[Tracer] = None,
) -> InstanceResult:
    """Run one (scenario, trial, heuristic) instance.

    The application runs *iterations* iterations and the engine stops at
    *makespan_cap* slots.  *platform*, *analysis* and *trace* may be
    supplied to share work across calls; when omitted they are rebuilt from
    the scenario (deterministically).  *trace* is the trial's shared availability
    realisation (a :class:`~repro.simulation.blocks.SampledTrace` of the
    trial seed); passing it skips re-sampling the availability chains
    without changing the result.  With
    *collect_metrics* the run carries a
    :class:`~repro.metrics.collector.MetricsCollector` sampling per-slot
    series every *metrics_stride* slots into ``InstanceResult.metrics``;
    all scalar fields stay bit-identical either way.  *tracer* attaches a
    :class:`~repro.telemetry.tracer.Tracer` to the engine and the shared
    analysis context (spans carry the cell/trial correlation attributes);
    ``None`` is the exact untraced path.
    """
    if platform is None:
        platform = scenario.build_platform()
    if analysis is None:
        analysis = AnalysisContext(platform, mode=mode)
    if tracer is not None:
        analysis.tracer = tracer
    application = scenario.build_application(iterations=iterations)
    scheduler = create_scheduler(heuristic)
    collector = MetricsCollector(metrics_stride) if collect_metrics else None
    engine = SimulationEngine(
        platform,
        application,
        scheduler,
        seed=scenario.trial_seed(trial),
        max_slots=makespan_cap,
        trace=trace,
        analysis=analysis,
        metrics=collector,
        tracer=tracer,
    )
    start = time.perf_counter()
    if tracer is not None:
        with tracer.context(cell=scenario.label(), trial=trial, heuristic=heuristic):
            result = engine.run()
    else:
        result = engine.run()
    elapsed = time.perf_counter() - start
    metrics = collector.result().as_dict() if collector is not None else None
    return InstanceResult.from_simulation(scenario, trial, result, elapsed, metrics=metrics)


def _run_cells(
    scenario: ExperimentScenario,
    work: Sequence[Tuple[int, str]],
    *,
    iterations: int,
    makespan_cap: int,
    mode: ExpectationMode = ExpectationMode.PAPER,
    collect_metrics: bool = False,
    metrics_stride: int = DEFAULT_STRIDE,
    trace_dir: Optional[str] = None,
) -> Iterator[InstanceResult]:
    """Run an ordered subset of one scenario's (trial, heuristic) pairs.

    Yields the results in *work* order, each trial's as soon as that trial
    ends, so an in-process campaign stores a trial before starting the next.

    Platform and analysis context are built once and shared.  Each trial's
    availability realisation is sampled once, as a
    :class:`~repro.simulation.blocks.SampledTrace`, and replayed for every
    heuristic — the paired comparison the paper relies on, without
    re-sampling identical chains per heuristic.

    The subset runner is what makes resume cheap: a partially-complete
    scenario re-runs only its missing cells, while the per-trial replay
    keeps every result bit-identical to a full run (the realisation
    depends only on the trial seed, never on which heuristics consume it).

    When a trial's subset contains two or more passive-contract heuristics,
    those are advanced in one pass by a
    :class:`~repro.simulation.multirun.MultiHeuristicDriver` sharing the
    trial's availability blocks; the remaining heuristics run solo against
    the same realisation.  Either path yields bit-identical results — the
    split is purely a cost optimisation.

    *trace_dir*, when set, attaches a per-process
    :class:`~repro.telemetry.tracer.Tracer` writing span files into that
    directory (engine, allocator and analysis spans with cell/trial
    correlation attributes), flushed as each trial ends; ``None`` is the
    exact untraced path.
    """
    platform = scenario.build_platform()
    analysis = AnalysisContext(platform, mode=mode)
    tracer = _tracer_for(trace_dir)
    if tracer is not None:
        analysis.tracer = tracer
    application = scenario.build_application(iterations=iterations)
    trial_order: List[int] = []
    by_trial: Dict[int, List[str]] = {}
    for trial, heuristic in work:
        if trial not in by_trial:
            trial_order.append(trial)
            by_trial[trial] = []
        by_trial[trial].append(heuristic)
    for trial in trial_order:
        trace = SampledTrace(platform, scenario.trial_seed(trial), makespan_cap)
        names = by_trial[trial]
        results: List[InstanceResult] = []
        one_pass: Dict[str, InstanceResult] = {}
        if len(names) >= 2:
            contract = [
                (name, scheduler)
                for name, scheduler in ((n, create_scheduler(n)) for n in names)
                if getattr(scheduler, "passive_between_rebuilds", False)
            ]
            if len(contract) >= 2:
                collectors = (
                    [MetricsCollector(metrics_stride) for _ in contract]
                    if collect_metrics
                    else None
                )
                driver = MultiHeuristicDriver(
                    platform,
                    application,
                    [scheduler for _, scheduler in contract],
                    seed=scenario.trial_seed(trial),
                    max_slots=makespan_cap,
                    trace=trace,
                    analysis=analysis,
                    metrics=collectors,
                    tracer=tracer,
                )
                if tracer is not None:
                    with tracer.context(cell=scenario.label(), trial=trial):
                        driver_results = driver.run()
                else:
                    driver_results = driver.run()
                for index, ((name, _), sim, wall) in enumerate(
                    zip(contract, driver_results, driver.wall_seconds)
                ):
                    metrics = (
                        collectors[index].result().as_dict()
                        if collectors is not None
                        else None
                    )
                    one_pass[name] = InstanceResult.from_simulation(
                        scenario, trial, sim, wall, metrics=metrics
                    )
        for heuristic in names:
            result = one_pass.get(heuristic)
            if result is None:
                result = run_instance(
                    scenario,
                    heuristic,
                    trial,
                    iterations=iterations,
                    makespan_cap=makespan_cap,
                    analysis=analysis,
                    platform=platform,
                    trace=trace,
                    mode=mode,
                    collect_metrics=collect_metrics,
                    metrics_stride=metrics_stride,
                    tracer=tracer,
                )
            results.append(result)
        if tracer is not None:
            # Make the trial's spans durable before its results are stored
            # (or handed back to the parent by the pool).
            tracer.flush()
        yield from results


# ----------------------------------------------------------------------
# Campaign execution (optionally multi-process)
# ----------------------------------------------------------------------
def _run_payload(payload: Tuple[ExperimentScenario, List[Tuple[int, str]], dict]) -> List[dict]:
    """Process-pool entry point: run one scenario's cells, return plain records."""
    scenario, work, options = payload
    return [result.as_dict() for result in _run_cells(scenario, work, **options)]


# ----------------------------------------------------------------------
# Spec-driven campaigns: resumable, shardable, store-backed
# ----------------------------------------------------------------------
def run_campaign_spec(
    spec: CampaignSpec,
    *,
    store=None,
    shard: Tuple[int, int] = (1, 1),
    n_jobs: int = 1,
    max_cells: Optional[int] = None,
    collect_metrics: Optional[bool] = None,
    metrics_stride: Optional[int] = None,
    trace_dir: Optional[str] = None,
    cell_progress: Optional[Callable[[CellProgress], None]] = None,
) -> List[InstanceResult]:
    """Run (or resume) the campaign described by a :class:`CampaignSpec`.

    Parameters
    ----------
    spec:
        The declarative campaign description (grid, availability substrate,
        heuristics, repetitions).
    store:
        Optional :class:`~repro.experiments.store.ResultStore`.  Cells whose
        index is already recorded are skipped (resume); every newly finished
        cell is appended durably.  With ``n_jobs <= 1`` each trial's cells
        are appended when the trial ends, so a kill loses at most the trial
        in flight; with ``n_jobs > 1`` results reach the store as
        whole scenario chunks return (in submission order), so a kill can
        lose the chunks still in flight — resume re-runs exactly those.
    shard:
        ``(i, N)`` — run only the i-th of N deterministic, disjoint,
        jointly-complete cell partitions (1-based).  Shards of the same spec
        may run on independent machines and be recombined with
        :func:`~repro.experiments.store.merge_stores`.
    n_jobs:
        Worker processes (1 = in-process).  Parallelism fans out whole
        scenarios; the store is only ever written by the parent process.
    max_cells:
        Stop after this many newly-run cells (used by smoke tests to
        simulate an interrupted campaign deterministically).
    collect_metrics, metrics_stride:
        Attach a per-run metrics collector sampling per-slot series into
        ``InstanceResult.metrics``.  ``None`` (the default) defers to the
        spec's own ``collect_metrics`` / ``metrics_stride`` settings.  This
        is a runtime option outside the spec identity:
        the series are volatile store fields, so runs with and without them
        resume and merge interchangeably.
    trace_dir:
        Directory for :class:`~repro.telemetry.tracer.Tracer` span files
        (one ``spans-<pid>.jsonl`` per process; ``repro campaign --trace``
        points this at ``<store>/telemetry``).  Another runtime option
        outside the spec identity: tracing never changes any result.
    cell_progress:
        Per-cell callback; ``done``/``total`` cover this shard including
        store-skipped cells, so resumed runs report true remaining work.

    Returns the shard's results in canonical cell order — previously stored
    cells included, so a resumed single-shard campaign returns the complete
    result set.
    """
    mode = ExpectationMode(spec.estimator)
    if collect_metrics is None:
        collect_metrics = spec.collect_metrics
    if metrics_stride is None:
        metrics_stride = spec.metrics_stride
    mine = spec.shard_cells(*shard)
    completed = store.completed_cells() if store is not None else set()
    skipped = [cell for cell in mine if cell.index in completed]
    todo = [cell for cell in mine if cell.index not in completed]
    if max_cells is not None:
        if max_cells < 0:
            raise ExperimentError(f"max_cells must be >= 0, got {max_cells}")
        todo = todo[:max_cells]
    total = len(mine)
    done = len(skipped)

    if skipped and cell_progress is not None:
        # One summary event for the resumed prefix; replaying every stored
        # cell through the callback would be noise.
        last = skipped[-1]
        cell_progress(
            CellProgress(
                done=done,
                total=total,
                scenario=last.scenario.label(),
                trial=last.trial,
                heuristic=last.heuristic,
                skipped=True,
            )
        )

    def emit(cell: CampaignCell, result: InstanceResult) -> None:
        nonlocal done
        done += 1
        if store is not None:
            store.append(cell, result)
        if cell_progress is not None:
            cell_progress(
                CellProgress(
                    done=done,
                    total=total,
                    scenario=cell.scenario.label(),
                    trial=cell.trial,
                    heuristic=cell.heuristic,
                )
            )

    # Group contiguous cells by scenario so platform/analysis
    # construction is shared by every cell of the scenario.
    groups: List[Tuple[ExperimentScenario, List[CampaignCell]]] = []
    for cell in todo:
        if groups and groups[-1][0] == cell.scenario:
            groups[-1][1].append(cell)
        else:
            groups.append((cell.scenario, [cell]))
    options = dict(
        iterations=spec.iterations,
        makespan_cap=spec.makespan_cap,
        mode=mode,
        collect_metrics=collect_metrics,
        metrics_stride=metrics_stride,
        trace_dir=trace_dir,
    )
    works = [[(cell.trial, cell.heuristic) for cell in cells] for _, cells in groups]

    fresh: Dict[int, InstanceResult] = {}
    if n_jobs <= 1:
        for (scenario, cells), work in zip(groups, works):
            for cell, result in zip(cells, _run_cells(scenario, work, **options)):
                fresh[cell.index] = result
                emit(cell, result)
    else:
        payloads = [(scenario, work, options) for (scenario, _), work in zip(groups, works)]
        with ProcessPoolExecutor(max_workers=n_jobs) as executor:
            for (_, cells), chunk in zip(groups, executor.map(_run_payload, payloads)):
                for cell, entry in zip(cells, chunk):
                    result = InstanceResult.from_dict(entry)
                    fresh[cell.index] = result
                    emit(cell, result)

    ordered: List[InstanceResult] = []
    if store is not None:
        stored = store.results_by_cell()
        for cell in mine:
            if cell.index in fresh:
                ordered.append(fresh[cell.index])
            elif cell.index in stored:
                ordered.append(stored[cell.index])
    else:
        ordered = [fresh[cell.index] for cell in mine if cell.index in fresh]
    return ordered
