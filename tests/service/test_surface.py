"""Pin the service's typed schema surface, api-surface style.

Adding or renaming a request/response field is an API change clients see;
this test makes it a deliberate, reviewable diff (and `docs/openapi.json`
must be regenerated alongside it — test_openapi.py enforces that half).
"""

from __future__ import annotations

import dataclasses

import repro.service as service
from repro.service import schemas
from repro.service.jobs import JOB_FIELDS, JOB_STATUSES

SERVICE_SURFACE = [
    "ServiceConfig",
    "ServiceState",
    "create_wsgi_app",
    "serve",
    "JOB_STATUSES",
    "JobQueue",
    "WorkerPool",
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

SCHEMA_FIELDS = {
    "CampaignSubmission": [
        "spec", "builtin", "spec_toml", "collect_metrics",
        "metrics_stride", "n_jobs", "max_cells",
    ],
    "CampaignAccepted": [
        "id", "name", "status", "deduplicated", "total_cells", "location", "report",
    ],
    "CampaignStatus": [
        "id", "name", "status", "attempts", "total_cells", "completed_cells",
        "remaining_cells", "by_heuristic", "error", "submitted_at",
        "started_at", "finished_at", "options",
    ],
    "HeuristicProgress": ["heuristic", "done", "total"],
    "CampaignSummary": [
        "id", "name", "status", "completed_cells", "total_cells", "submitted_at",
    ],
    "CampaignList": ["count", "campaigns"],
    "CellRecord": [
        "cell", "heuristic", "m", "ncom", "wmin", "num_processors",
        "scenario_index", "trial_index", "success", "makespan",
        "completed_iterations", "total_restarts",
        "total_configuration_changes", "wall_time_seconds", "has_metrics",
    ],
    "CampaignCells": [
        "id", "total_cells", "completed_cells", "offset", "limit", "count", "cells",
    ],
    "ServiceInfo": ["name", "version", "description", "endpoints"],
    "HealthResponse": ["status", "workers", "jobs", "queue_depth", "stale_jobs"],
    "ErrorResponse": ["error"],
}


def test_service_package_surface():
    assert sorted(service.__all__) == sorted(SERVICE_SURFACE)
    for name in SERVICE_SURFACE:
        assert hasattr(service, name), f"repro.service.{name} missing"


def test_schema_fields_pinned():
    for class_name, expected in SCHEMA_FIELDS.items():
        cls = getattr(schemas, class_name)
        actual = [f.name for f in dataclasses.fields(cls)]
        assert actual == expected, (
            f"{class_name} fields changed: {actual} != {expected}; this is a "
            "client-visible API change — update this test AND regenerate "
            "docs/openapi.json (python -m repro.service.openapi --output "
            "docs/openapi.json)"
        )


def test_schemas_are_frozen_with_docstrings():
    for class_name in SCHEMA_FIELDS:
        cls = getattr(schemas, class_name)
        assert cls.__dataclass_params__.frozen, f"{class_name} must be frozen"
        assert cls.__doc__ and not cls.__doc__.startswith(class_name + "("), (
            f"{class_name} needs a real docstring"
        )


def test_job_document_fields_pinned():
    assert JOB_FIELDS == (
        "id", "format_version", "name", "spec", "spec_hash", "base_dir",
        "status", "attempts", "pid", "submitted_at", "started_at",
        "finished_at", "error", "options", "total_cells",
    )
    assert JOB_STATUSES == ("queued", "running", "completed", "failed")
