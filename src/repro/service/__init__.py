"""Simulation-as-a-service: an HTTP API + durable job queue over campaigns.

``repro.service`` turns the campaign subsystem into a shared, cache-backed
service.  Clients ``POST /campaigns`` a spec (inline mapping, TOML text, or
a built-in name); the service validates it through the same registry/grammar
as ``repro campaign``, persists a job keyed by the spec's content hash, and
a process-based worker pool drains the queue into ordinary
:class:`~repro.experiments.store.ResultStore` directories.  Identical specs
— submitted concurrently or days apart — deduplicate onto one shared run;
progress, per-cell results and the HTML dashboard are read straight from the
store.  Durability is the campaign runner's resume contract: kill any worker
(or the whole service) and the next dispatch resumes from the store to
byte-identical results.

Quick start (no extra dependencies: the server is pure stdlib)::

    $ repro serve --root /tmp/repro-service --port 8000 &
    $ curl -s -X POST localhost:8000/campaigns \\
          -d '{"builtin": "smoke"}' | python -m json.tool

See ``docs/service.md`` for the deployment guide and a full curl
walkthrough.
"""

from repro.service.app import ServiceConfig, ServiceState, create_wsgi_app, serve
from repro.service.jobs import JOB_STATUSES, JobQueue, WorkerPool
from repro.service.schemas import (
    CampaignAccepted,
    CampaignCells,
    CampaignList,
    CampaignStatus,
    CampaignSubmission,
    CampaignSummary,
    CellRecord,
    ErrorResponse,
    HealthResponse,
    HeuristicProgress,
    ServiceError,
    ServiceInfo,
)

__all__ = [
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
