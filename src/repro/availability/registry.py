"""Registered availability-model substrates for scenario/campaign building.

Mirrors the heuristic registry (:mod:`repro.scheduling.registry`): each
availability *kind* a scenario can request — ``markov`` (the paper's
Section V chain), ``semi-markov``, ``diurnal``, ``trace`` and friends, plus
the :mod:`repro.hazards` substrates ``degradation``, ``correlated`` and
``churn`` — is registered in :data:`AVAILABILITY_MODELS` with a description
and its parameter catalogue, replacing the hard-coded if/elif over kinds
that used to live in :mod:`repro.experiments.scenarios`.

A registered entry is a *builder*: given the scenario's availability
parameters (any object with a ``get(name, default)`` accessor, such as
:class:`repro.experiments.scenarios.AvailabilitySpec`), it returns a
``model_factory(rng, count)`` producing one
:class:`~repro.availability.model.AvailabilityModel` per processor.  The
factory is consumed by
:func:`repro.platform.builders.availability_platform`, which draws models
first and speeds second from one seeded generator — for the default
``markov`` kind this is exactly the
:func:`~repro.platform.builders.paper_platform` draw.

Numeric parameters may be scalars (used as-is for every processor) or
two-element ``[low, high]`` ranges (drawn uniformly per processor from the
scenario's platform seed).

To plug in your own substrate::

    from repro.availability.registry import register_availability_model
    from repro.components import ComponentParameter

    @register_availability_model(
        "flaky", description="everything fails a lot",
        parameters=(ComponentParameter("rate", float, default=0.5),))
    def _flaky_models(spec):
        def factory(rng, count):
            return [MyFlakyModel(spec.get("rate", 0.5)) for _ in range(count)]
        return factory

after which campaign specs accept ``[availability] kind = "flaky"``.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.availability.diurnal import DiurnalAvailabilityModel
from repro.availability.generators import random_markov_models
from repro.availability.semi_markov import SemiMarkovAvailabilityModel
from repro.availability.trace import AvailabilityTrace, TraceAvailabilityModel
from repro.components import ComponentParameter, ComponentRegistry
from repro.exceptions import ExperimentError

__all__ = [
    "AVAILABILITY_MODELS",
    "register_availability_model",
    "model_factory_for",
]

#: The single source of truth for availability substrates: scenario
#: validation, platform building, the CLI's ``repro models`` listing and the
#: ``repro.api`` facade all query this registry.
AVAILABILITY_MODELS = ComponentRegistry("availability model")


def register_availability_model(
    name: str,
    builder: Optional[Callable] = None,
    *,
    description: str = "",
    parameters=(),
    family: str = "availability",
):
    """Register an availability-substrate builder (decorator-friendly).

    ``builder(spec)`` must return a ``model_factory(rng, count)`` callable.
    ``parameters`` documents the accepted spec parameters explicitly (they
    are range-or-scalar valued, so signature introspection does not apply);
    scenario specs reject parameters that are not declared here.
    """
    return AVAILABILITY_MODELS.register(
        name,
        builder,
        family=family,
        description=description,
        parameters=tuple(parameters),
    )


def model_factory_for(spec) -> Callable:
    """The per-processor ``model_factory(rng, count)`` for an availability spec.

    *spec* is any object with ``kind`` and ``get(name, default)`` — in
    practice :class:`repro.experiments.scenarios.AvailabilitySpec`.
    """
    return AVAILABILITY_MODELS.get(spec.kind).factory(spec)


# ----------------------------------------------------------------------
# Parameter helpers shared by the built-in builders
# ----------------------------------------------------------------------
def draw_parameter(rng: np.random.Generator, value, name: str) -> float:
    """Resolve a spec parameter: scalar as-is, two-element range drawn uniformly."""
    if isinstance(value, tuple):
        return float(rng.uniform(value[0], value[1]))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ExperimentError(f"availability parameter {name!r} must be numeric, got {value!r}")


@functools.lru_cache(maxsize=8)
def _load_trace(path: str) -> AvailabilityTrace:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ExperimentError(f"cannot load availability trace from {path}: {error}") from error
    return AvailabilityTrace.from_dict(payload)


@functools.lru_cache(maxsize=8)
def _load_catalog(directory: str):
    from repro.traces.formats import TraceCatalog, TraceFormatError

    try:
        return TraceCatalog(directory)
    except TraceFormatError as error:
        raise ExperimentError(str(error)) from error


@functools.lru_cache(maxsize=16)
def _load_dataset(path: str, dataset: Optional[str], slot: float, gap: str, overlap: str):
    """Load a recorded dataset for the trace-driven substrates (cached).

    *path* is either a trace file in any ingestible format, or a catalog
    directory (then *dataset* selects the file; the spec's discretisation
    parameters apply unless the dataset's ``catalog.json`` entry overrides
    them).
    """
    from repro.traces.formats import TraceFormatError, load_trace

    try:
        if Path(path).is_dir():
            catalog = _load_catalog(path)
            if dataset is None:
                raise ExperimentError(
                    f"{path} is a trace catalog directory: a 'dataset' parameter "
                    f"is required (available: {catalog.names()})"
                )
            return catalog.load(
                dataset, defaults={"slot": slot, "gap": gap, "overlap": overlap}
            )
        return load_trace(path, slot_duration=slot, gap=gap, overlap=overlap)
    except TraceFormatError as error:
        raise ExperimentError(str(error)) from error


def _dataset_for(spec) -> AvailabilityTrace:
    """Resolve the shared (path, dataset, discretisation) parameters of a spec."""
    path = spec.get("path")
    if path is None:
        raise ExperimentError(f"availability kind {spec.kind!r} requires a 'path' parameter")
    dataset = spec.get("dataset")
    return _load_dataset(
        str(path),
        str(dataset) if dataset else None,
        float(spec.get("slot", 1.0)),
        str(spec.get("gap", "down")),
        str(spec.get("overlap", "error")),
    )


#: Discretisation parameters shared by the trace-driven substrates.
_INGEST_PARAMETERS = (
    ComponentParameter(
        "slot", float, default=1.0,
        description="recorded time units per slot (CSV/JSONL ingestion)",
    ),
    ComponentParameter(
        "gap", str, default="down",
        description="state for slots no interval covers: down, hold or error",
    ),
    ComponentParameter(
        "overlap", str, default="error",
        description="conflicting-interval policy: error, first or last",
    ),
)


# ----------------------------------------------------------------------
# The four built-in substrates
# ----------------------------------------------------------------------
@register_availability_model(
    "markov",
    description="3-state Markov chain of Section V; stay-probabilities "
    "uniform per processor (the paper's default substrate)",
    parameters=(
        ComponentParameter(
            "stay_low", float, default=0.90,
            description="lower bound of the per-state stay-probability draw",
        ),
        ComponentParameter(
            "stay_high", float, default=0.99,
            description="upper bound of the per-state stay-probability draw",
        ),
    ),
)
def _markov_models(spec):
    def scalar(name: str, default: float) -> float:
        value = spec.get(name, default)
        if isinstance(value, tuple):
            raise ExperimentError(
                f"markov availability parameter {name!r} is a scalar — "
                f"[stay_low, stay_high] is already the per-processor range "
                f"(got {list(value)!r})"
            )
        return float(value)

    stay_low = scalar("stay_low", 0.90)
    stay_high = scalar("stay_high", 0.99)

    def factory(rng, count):
        return random_markov_models(count, rng, stay_low=stay_low, stay_high=stay_high)

    return factory


@register_availability_model(
    "semi-markov",
    description="non-Markovian desktop grid: Weibull UP sojourns, "
    "log-normal interruptions (robustness extension)",
    parameters=(
        ComponentParameter(
            "up_shape", float, default=(0.5, 0.8),
            description="Weibull shape of the UP sojourn distribution",
        ),
        ComponentParameter(
            "mean_up", float, default=(25.0, 60.0),
            description="mean UP sojourn length (slots)",
        ),
        ComponentParameter(
            "mean_reclaimed", float, default=(2.0, 6.0),
            description="mean RECLAIMED sojourn length (slots)",
        ),
        ComponentParameter(
            "mean_down", float, default=(10.0, 30.0),
            description="mean DOWN sojourn length (slots)",
        ),
        ComponentParameter(
            "reclaim_fraction", float, default=(0.6, 0.85),
            description="probability an interruption is RECLAIMED rather than DOWN",
        ),
    ),
)
def _semi_markov_models(spec):
    def factory(rng, count):
        return [
            SemiMarkovAvailabilityModel.desktop_grid(
                up_shape=draw_parameter(rng, spec.get("up_shape", (0.5, 0.8)), "up_shape"),
                mean_up=draw_parameter(rng, spec.get("mean_up", (25.0, 60.0)), "mean_up"),
                mean_reclaimed=draw_parameter(
                    rng, spec.get("mean_reclaimed", (2.0, 6.0)), "mean_reclaimed"
                ),
                mean_down=draw_parameter(
                    rng, spec.get("mean_down", (10.0, 30.0)), "mean_down"
                ),
                reclaim_fraction=draw_parameter(
                    rng, spec.get("reclaim_fraction", (0.6, 0.85)), "reclaim_fraction"
                ),
            )
            for _ in range(count)
        ]

    return factory


@register_availability_model(
    "diurnal",
    description="time-inhomogeneous office-hours cycle: reliable nights, "
    "churny working hours, per-processor phase offsets",
    parameters=(
        ComponentParameter(
            "day_length", float, default=96,
            description="slots per day (phase offsets are drawn modulo it)",
        ),
        ComponentParameter(
            "office_fraction", float, default=0.4,
            description="fraction of the day spent in the churny office phase",
        ),
        ComponentParameter(
            "night_stay_up", float, default=0.995,
            description="UP stay-probability during the quiet phase",
        ),
        ComponentParameter(
            "office_stay_up", float, default=(0.88, 0.95),
            description="UP stay-probability during office hours",
        ),
    ),
)
def _diurnal_models(spec):
    def factory(rng, count):
        day_length = int(draw_parameter(rng, spec.get("day_length", 96), "day_length"))
        return [
            DiurnalAvailabilityModel.office_hours(
                day_length=day_length,
                office_fraction=draw_parameter(
                    rng, spec.get("office_fraction", 0.4), "office_fraction"
                ),
                night_stay_up=draw_parameter(
                    rng, spec.get("night_stay_up", 0.995), "night_stay_up"
                ),
                office_stay_up=draw_parameter(
                    rng, spec.get("office_stay_up", (0.88, 0.95)), "office_stay_up"
                ),
                phase_offset=int(rng.integers(0, day_length)),
            )
            for _ in range(count)
        ]

    return factory


@register_availability_model(
    "trace",
    description="replay recorded availability traces (JSON), row per processor",
    parameters=(
        ComponentParameter(
            "path", str,
            description="trace file (relative paths resolve against the spec file)",
        ),
        ComponentParameter(
            "wrap", bool, default=True,
            description="loop the trace when the simulation outlives it",
        ),
    ),
)
def _trace_models(spec):
    trace = _load_trace(str(spec.get("path")))
    wrap = bool(spec.get("wrap", True))

    def factory(rng, count):
        return [
            TraceAvailabilityModel(trace.row(index % trace.num_processors), wrap=wrap)
            for index in range(count)
        ]

    return factory


# ----------------------------------------------------------------------
# Trace-driven substrates (recorded datasets, repro.traces pipeline)
# ----------------------------------------------------------------------
@register_availability_model(
    "trace-catalog",
    description="replay a named recorded dataset from a trace catalog "
    "directory (CSV/JSONL/compact/JSON), rows assigned round-robin",
    parameters=(
        ComponentParameter(
            "path", str,
            description="trace file or catalog directory "
            "(relative paths resolve against the spec file)",
        ),
        ComponentParameter(
            "dataset", str, default="",
            description="dataset name inside a catalog directory",
        ),
        ComponentParameter(
            "wrap", bool, default=True,
            description="loop the recording when the simulation outlives it",
        ),
    ) + _INGEST_PARAMETERS,
)
def _trace_catalog_models(spec):
    trace = _dataset_for(spec)
    wrap = bool(spec.get("wrap", True))

    def factory(rng, count):
        return [
            TraceAvailabilityModel(trace.row(index % trace.num_processors), wrap=wrap)
            for index in range(count)
        ]

    return factory


@register_availability_model(
    "trace-bootstrap",
    description="bootstrap-resample a recorded dataset: each processor "
    "replays a resampled row (or block-bootstrap splice) of the recording",
    parameters=(
        ComponentParameter(
            "path", str,
            description="trace file or catalog directory "
            "(relative paths resolve against the spec file)",
        ),
        ComponentParameter(
            "dataset", str, default="",
            description="dataset name inside a catalog directory",
        ),
        ComponentParameter(
            "block", int, default=0,
            description="block-bootstrap block length in slots "
            "(0 = whole-row bootstrap)",
        ),
        ComponentParameter(
            "horizon", int, default=0,
            description="generated slots per processor for block bootstrap "
            "(0 = the recorded horizon)",
        ),
        ComponentParameter(
            "wrap", bool, default=True,
            description="loop the resampled sequence when the simulation outlives it",
        ),
    ) + _INGEST_PARAMETERS,
)
def _trace_bootstrap_models(spec):
    from repro.traces.resample import bootstrap_models

    trace = _dataset_for(spec)
    block = int(spec.get("block", 0))
    horizon = int(spec.get("horizon", 0))
    wrap = bool(spec.get("wrap", True))

    def factory(rng, count):
        return bootstrap_models(
            trace,
            rng,
            count,
            block_length=block or None,
            horizon=horizon or None,
            wrap=wrap,
        )

    return factory


@register_availability_model(
    "fitted",
    description="fit a synthetic family (markov / semi-markov / diurnal / "
    "correlated / degradation) to a recorded dataset, then sample fresh "
    "trajectories from the fit",
    parameters=(
        ComponentParameter(
            "model", str, aliases=("kind",),
            description="family to calibrate: markov, semi-markov, diurnal, "
            "correlated or degradation",
        ),
        ComponentParameter(
            "path", str,
            description="trace file or catalog directory "
            "(relative paths resolve against the spec file)",
        ),
        ComponentParameter(
            "dataset", str, default="",
            description="dataset name inside a catalog directory",
        ),
        ComponentParameter(
            "day_length", int, default=96,
            description="slots per day for the diurnal fit",
        ),
        ComponentParameter(
            "num_phases", int, default=2,
            description="phase bins per day for the diurnal fit",
        ),
        ComponentParameter(
            "prior", float, default=0.0,
            description="Laplace smoothing count for the markov/diurnal fits",
        ),
        ComponentParameter(
            "pm_level", int, default=3,
            description="assumed preventive-maintenance wear level for the "
            "degradation fit",
        ),
        ComponentParameter(
            "fail_level", int, default=6,
            description="assumed failure wear level for the degradation fit",
        ),
    ) + _INGEST_PARAMETERS,
)
def _fitted_models(spec):
    from repro.traces.fit import FIT_KINDS

    kind = str(spec.get("model", "")).lower()
    if kind not in FIT_KINDS:
        raise ExperimentError(
            f"fitted availability: 'model' must be one of {list(FIT_KINDS)}, got {kind!r}"
        )
    trace = _dataset_for(spec)
    options = {}
    if kind in ("markov", "diurnal"):
        options["prior"] = float(spec.get("prior", 0.0))
    if kind == "diurnal":
        options["day_length"] = int(spec.get("day_length", 96))
        options["num_phases"] = int(spec.get("num_phases", 2))
    if kind == "degradation":
        options["pm_level"] = int(spec.get("pm_level", 3))
        options["fail_level"] = int(spec.get("fail_level", 6))
    # The builder runs once per scenario platform; the fit itself (scipy MLE
    # over the whole recording) is memoised on the immutable cached trace.
    fitted = _fit_cached(trace, kind, tuple(sorted(options.items())))

    def factory(rng, count):
        # Fresh instances per processor: fitted models carry per-trajectory
        # sampling state (holding counters, phase clocks).
        return fitted.make_models(count)

    # A correlated fit reconstructs the platform-level outage overlay on top
    # of its per-worker base chains, just like the native substrate.
    if fitted.hazard_builder is not None:
        factory.hazard_factory = fitted.hazard_builder

    return factory


# ----------------------------------------------------------------------
# Hazard substrates (repro.hazards): degradation, correlated outages, churn
# ----------------------------------------------------------------------
@register_availability_model(
    "degradation",
    description="per-worker wear levels advanced by usage, with "
    "condition-based preventive maintenance (RECLAIMED) and corrective "
    "repair (DOWN) sojourns",
    family="hazard",
    parameters=(
        ComponentParameter(
            "wear_rate", float, default=(0.02, 0.05),
            description="per-UP-slot probability of advancing one wear level",
        ),
        ComponentParameter(
            "pm_level", int, default=3,
            description="wear level from which preventive maintenance triggers",
        ),
        ComponentParameter(
            "fail_level", int, default=6,
            description="wear level at which the worker fails (must exceed pm_level)",
        ),
        ComponentParameter(
            "compliance", float, default=(0.6, 0.9),
            description="probability a preventive-maintenance opportunity is taken",
        ),
        ComponentParameter(
            "pm_mean", float, default=4.0,
            description="mean preventive-maintenance sojourn (slots)",
        ),
        ComponentParameter(
            "cm_mean", float, default=25.0,
            description="mean corrective-repair sojourn (slots)",
        ),
        ComponentParameter(
            "pm_dist", str, default="lognormal",
            description="PM sojourn family: geometric, deterministic, lognormal, weibull",
        ),
        ComponentParameter(
            "cm_dist", str, default="lognormal",
            description="CM sojourn family: geometric, deterministic, lognormal, weibull",
        ),
    ),
)
def _degradation_models(spec):
    from repro.hazards.degradation import DegradationAvailabilityModel, sojourn_distribution

    pm_dist = str(spec.get("pm_dist", "lognormal"))
    cm_dist = str(spec.get("cm_dist", "lognormal"))

    def factory(rng, count):
        models = []
        for _ in range(count):
            models.append(
                DegradationAvailabilityModel(
                    wear_rate=draw_parameter(
                        rng, spec.get("wear_rate", (0.02, 0.05)), "wear_rate"
                    ),
                    pm_level=int(draw_parameter(rng, spec.get("pm_level", 3), "pm_level")),
                    fail_level=int(
                        draw_parameter(rng, spec.get("fail_level", 6), "fail_level")
                    ),
                    compliance=draw_parameter(
                        rng, spec.get("compliance", (0.6, 0.9)), "compliance"
                    ),
                    pm_time=sojourn_distribution(
                        pm_dist, draw_parameter(rng, spec.get("pm_mean", 4.0), "pm_mean")
                    ),
                    cm_time=sojourn_distribution(
                        cm_dist, draw_parameter(rng, spec.get("cm_mean", 25.0), "cm_mean")
                    ),
                )
            )
        return models

    return factory


#: Base-chain stay-probability parameters shared by the overlay substrates
#: (the overlays force DOWN on top of an ordinary per-worker Markov base).
_OVERLAY_BASE_PARAMETERS = (
    ComponentParameter(
        "stay_low", float, default=0.90,
        description="lower bound of the base chain's stay-probability draw",
    ),
    ComponentParameter(
        "stay_high", float, default=0.99,
        description="upper bound of the base chain's stay-probability draw",
    ),
)


def _platform_scalar(spec, name: str, default) -> float:
    """A platform-level hazard parameter: scalar only (one process per run)."""
    value = spec.get(name, default)
    if isinstance(value, tuple):
        raise ExperimentError(
            f"availability parameter {name!r} is platform-level and must be a "
            f"scalar, not a [low, high] range (got {list(value)!r})"
        )
    return float(value)


def _overlay_base_factory(spec, hazard_factory):
    """A Section-V Markov base factory carrying a platform hazard overlay."""
    stay_low = _platform_scalar(spec, "stay_low", 0.90)
    stay_high = _platform_scalar(spec, "stay_high", 0.99)

    def factory(rng, count):
        return random_markov_models(count, rng, stay_low=stay_low, stay_high=stay_high)

    factory.hazard_factory = hazard_factory
    return factory


@register_availability_model(
    "correlated",
    description="correlated outages: per-domain event process forcing "
    "simultaneous DOWN spans onto member workers over a Markov base",
    family="hazard",
    parameters=(
        ComponentParameter(
            "domains", int, default=4,
            description="number of shared failure domains (round-robin membership)",
        ),
        ComponentParameter(
            "rate", float, default=0.002,
            description="per-slot probability a healthy domain starts an outage",
        ),
        ComponentParameter(
            "mean_outage", float, default=8.0,
            description="mean domain-outage duration (slots)",
        ),
    ) + _OVERLAY_BASE_PARAMETERS,
)
def _correlated_models(spec):
    from repro.hazards.process import DomainOutageProcess

    domains = int(_platform_scalar(spec, "domains", 4))
    rate = _platform_scalar(spec, "rate", 0.002)
    mean_outage = _platform_scalar(spec, "mean_outage", 8.0)
    # Validate eagerly (at scenario-build time) with a representative size.
    DomainOutageProcess(max(domains, 1), domains=domains, rate=rate, mean_outage=mean_outage)

    return _overlay_base_factory(
        spec,
        lambda num_workers: DomainOutageProcess(
            num_workers, domains=domains, rate=rate, mean_outage=mean_outage
        ),
    )


@register_availability_model(
    "churn",
    description="non-stationary pool churn: workers enrol and leave "
    "mid-application via a birth-death overlay on a Markov base",
    family="hazard",
    parameters=(
        ComponentParameter(
            "mean_present", float, default=400.0,
            description="mean enrolled sojourn per worker (slots)",
        ),
        ComponentParameter(
            "mean_absent", float, default=150.0,
            description="mean absent sojourn per worker (slots)",
        ),
        ComponentParameter(
            "present0", float, default=0.8,
            description="probability a worker is enrolled at slot 0",
        ),
    ) + _OVERLAY_BASE_PARAMETERS,
)
def _churn_models(spec):
    from repro.hazards.process import ChurnProcess

    mean_present = _platform_scalar(spec, "mean_present", 400.0)
    mean_absent = _platform_scalar(spec, "mean_absent", 150.0)
    present0 = _platform_scalar(spec, "present0", 0.8)
    ChurnProcess(
        1, mean_present=mean_present, mean_absent=mean_absent, present0=present0
    )

    return _overlay_base_factory(
        spec,
        lambda num_workers: ChurnProcess(
            num_workers,
            mean_present=mean_present,
            mean_absent=mean_absent,
            present0=present0,
        ),
    )


#: (trace id, kind, options) -> (trace, FittedModel).  The stored trace
#: reference both identifies the dataset (``_load_dataset`` returns cached
#: instances) and keeps its ``id`` from being reused while the entry lives.
_FIT_CACHE: dict = {}
_FIT_CACHE_MAX = 32


def _fit_cached(trace, kind: str, option_items):
    """Memoised ``fit_model`` keyed by the cached trace's identity + options."""
    from repro.traces.fit import TraceFitError, fit_model

    key = (id(trace), kind, option_items)
    entry = _FIT_CACHE.get(key)
    if entry is not None and entry[0] is trace:
        return entry[1]
    try:
        fitted = fit_model(kind, trace, **dict(option_items))
    except TraceFitError as error:
        raise ExperimentError(str(error)) from error
    if len(_FIT_CACHE) >= _FIT_CACHE_MAX:
        _FIT_CACHE.clear()
    _FIT_CACHE[key] = (trace, fitted)
    return fitted
