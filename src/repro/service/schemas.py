"""Typed request/response schemas of the campaign service.

Every payload the HTTP API accepts or returns corresponds to exactly one
dataclass here; the OpenAPI component schemas (:mod:`repro.service.openapi`,
committed as ``docs/openapi.json``) are generated from these classes, and
the service surface test pins their field names — adding a field is a
deliberate, reviewable API change, exactly like ``tests/test_api_surface.py``
for the library facade.

Example round trip::

    >>> from repro.service.schemas import CampaignAccepted
    >>> accepted = CampaignAccepted(id="abc", name="smoke", status="queued",
    ...                             deduplicated=False, total_cells=4,
    ...                             location="/campaigns/abc",
    ...                             report="/campaigns/abc/report")
    >>> accepted.as_dict()["deduplicated"]
    False
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional

from repro.exceptions import ReproError

__all__ = [
    "ServiceError",
    "CampaignSubmission",
    "CampaignAccepted",
    "CampaignStatus",
    "HeuristicProgress",
    "CampaignSummary",
    "CampaignList",
    "CellRecord",
    "CampaignCells",
    "ServiceInfo",
    "HealthResponse",
    "ErrorResponse",
]


class ServiceError(ReproError):
    """A request the service must reject (carries the HTTP status to use)."""

    def __init__(self, message: str, status: int = 422):
        super().__init__(message)
        self.status = int(status)


class _Schema:
    """Shared ``as_dict`` for all schema dataclasses (JSON-ready payloads)."""

    def as_dict(self) -> dict:
        """The payload as plain JSON-compatible data."""
        return asdict(self)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignSubmission(_Schema):
    """Body of ``POST /campaigns``.

    Exactly one of *spec* (an inline campaign-spec mapping, the same shape
    as a TOML/JSON spec file), *builtin* (a named built-in like ``"smoke"``)
    or *spec_toml* (TOML text) names the campaign.  The remaining fields are
    runtime options — none of them enter the campaign's identity, so two
    submissions differing only in options deduplicate onto one job.

    Example::

        >>> submission = CampaignSubmission.from_payload({"builtin": "smoke"})
        >>> submission.builtin
        'smoke'
    """

    spec: Optional[dict] = None
    builtin: Optional[str] = None
    spec_toml: Optional[str] = None
    #: Attach the per-slot metrics collector (``None`` = the spec's setting).
    collect_metrics: Optional[bool] = None
    metrics_stride: Optional[int] = None
    #: Worker processes the job's worker fans scenarios out over.
    n_jobs: int = 1
    #: Stop the worker after this many newly run cells (the job re-queues
    #: until complete) — a deterministic interrupted-worker stand-in.
    max_cells: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: dict) -> "CampaignSubmission":
        """Parse and validate a request body (unknown keys are rejected)."""
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        known = {schema_field.name for schema_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ServiceError(
                f"unknown submission fields {unknown}; expected a subset of {sorted(known)}"
            )
        submission = cls(**payload)
        sources = [
            name
            for name in ("spec", "builtin", "spec_toml")
            if getattr(submission, name) is not None
        ]
        if len(sources) != 1:
            raise ServiceError(
                "exactly one of 'spec', 'builtin' or 'spec_toml' must be provided"
                + (f" (got {sources})" if sources else "")
            )
        if submission.spec is not None and not isinstance(submission.spec, dict):
            raise ServiceError("'spec' must be a JSON object (a campaign spec mapping)")
        for name in ("builtin", "spec_toml"):
            value = getattr(submission, name)
            if value is not None and not isinstance(value, str):
                raise ServiceError(f"'{name}' must be a string")
        if int(submission.n_jobs) < 1:
            raise ServiceError(f"n_jobs must be >= 1, got {submission.n_jobs}")
        if submission.max_cells is not None and int(submission.max_cells) < 1:
            raise ServiceError(f"max_cells must be >= 1, got {submission.max_cells}")
        if submission.metrics_stride is not None and int(submission.metrics_stride) < 1:
            raise ServiceError(
                f"metrics_stride must be >= 1, got {submission.metrics_stride}"
            )
        return submission

    def options(self) -> dict:
        """The runtime options to persist in the job document."""
        return {
            "collect_metrics": self.collect_metrics,
            "metrics_stride": self.metrics_stride,
            "n_jobs": int(self.n_jobs),
            "max_cells": self.max_cells,
        }


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignAccepted(_Schema):
    """Response of ``POST /campaigns`` (201 created, 200 deduplicated)."""

    id: str
    name: str
    status: str
    #: ``True`` when an identical spec was already submitted: the client
    #: attached to the existing shared job instead of creating a new one.
    deduplicated: bool
    total_cells: int
    location: str
    report: str


@dataclass(frozen=True)
class HeuristicProgress(_Schema):
    """Per-heuristic completion slice inside :class:`CampaignStatus`."""

    heuristic: str
    done: int
    total: int


@dataclass(frozen=True)
class CampaignStatus(_Schema):
    """Response of ``GET /campaigns/{id}``."""

    id: str
    name: str
    status: str
    attempts: int
    total_cells: int
    completed_cells: int
    remaining_cells: int
    by_heuristic: List[HeuristicProgress]
    error: Optional[str]
    submitted_at: Optional[float]
    started_at: Optional[float]
    finished_at: Optional[float]
    options: dict


@dataclass(frozen=True)
class CampaignSummary(_Schema):
    """One row of ``GET /campaigns``."""

    id: str
    name: str
    status: str
    completed_cells: int
    total_cells: int
    submitted_at: Optional[float]


@dataclass(frozen=True)
class CampaignList(_Schema):
    """Response of ``GET /campaigns``."""

    count: int
    campaigns: List[CampaignSummary]


@dataclass(frozen=True)
class CellRecord(_Schema):
    """One completed campaign cell, as stored (scalar fields only)."""

    cell: int
    heuristic: str
    m: int
    ncom: int
    wmin: int
    num_processors: int
    scenario_index: int
    trial_index: int
    success: bool
    makespan: Optional[int]
    completed_iterations: int
    total_restarts: int
    total_configuration_changes: int
    wall_time_seconds: float
    #: Whether the stored record carries per-slot metric series (the series
    #: themselves are served by the HTML report, not this listing).
    has_metrics: bool


@dataclass(frozen=True)
class CampaignCells(_Schema):
    """Response of ``GET /campaigns/{id}/cells`` (paginated cell progress)."""

    id: str
    total_cells: int
    completed_cells: int
    offset: int
    limit: int
    count: int
    cells: List[CellRecord]


@dataclass(frozen=True)
class ServiceInfo(_Schema):
    """Response of ``GET /`` — name, version and the route map."""

    name: str
    version: str
    description: str
    endpoints: Dict[str, str]


@dataclass(frozen=True)
class HealthResponse(_Schema):
    """Response of ``GET /healthz``.

    *queue_depth* counts jobs waiting to run (queued + requeued); *stale_jobs*
    counts jobs marked ``running`` whose recorded worker pid is no longer
    alive — when any exist the overall *status* degrades from ``"ok"`` to
    ``"degraded"`` (the pool's reaper will requeue them on its next tick).
    *status* is also ``"degraded"`` while the worker pool's most recent
    dispatcher tick failed.
    """

    status: str
    workers: int
    jobs: Dict[str, int]
    queue_depth: int
    stale_jobs: int


@dataclass(frozen=True)
class ErrorResponse(_Schema):
    """Every non-2xx JSON response: one human-readable error message."""

    error: str


def cell_record_from_store(record: dict) -> CellRecord:
    """Build a :class:`CellRecord` from one raw store record."""
    return CellRecord(
        cell=int(record["cell"]),
        heuristic=record["heuristic"],
        m=int(record["m"]),
        ncom=int(record["ncom"]),
        wmin=int(record["wmin"]),
        num_processors=int(record.get("num_processors", 20)),
        scenario_index=int(record["scenario_index"]),
        trial_index=int(record["trial_index"]),
        success=bool(record["success"]),
        makespan=record.get("makespan"),
        completed_iterations=int(record["completed_iterations"]),
        total_restarts=int(record["total_restarts"]),
        total_configuration_changes=int(record["total_configuration_changes"]),
        wall_time_seconds=float(record.get("wall_time_seconds", 0.0)),
        has_metrics="metrics" in record,
    )
