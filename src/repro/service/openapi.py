"""OpenAPI 3 document for the campaign service, generated from the schemas.

The document is built deterministically from the dataclasses in
:mod:`repro.service.schemas` — component schemas are derived from the typed
fields, so code and contract cannot drift apart — and the exact JSON text is
committed as ``docs/openapi.json``.  The WSGI app serves these same bytes
at ``GET /openapi.json``, and ``tests/service/test_openapi.py`` asserts the
committed copy matches the live app (regenerate with ``python -m
repro.service.openapi --output docs/openapi.json`` after a schema change).
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Optional, Sequence

import repro
from repro.service import schemas

__all__ = ["openapi_document", "openapi_json_text", "main"]

OPENAPI_VERSION = "3.0.3"

#: The dataclasses exported as OpenAPI component schemas, in document order.
SCHEMA_CLASSES = (
    schemas.CampaignSubmission,
    schemas.CampaignAccepted,
    schemas.CampaignStatus,
    schemas.HeuristicProgress,
    schemas.CampaignSummary,
    schemas.CampaignList,
    schemas.CellRecord,
    schemas.CampaignCells,
    schemas.ServiceInfo,
    schemas.HealthResponse,
    schemas.ErrorResponse,
)


def _type_schema(annotation) -> dict:
    """Map one typing annotation to an OpenAPI schema fragment."""
    origin = typing.get_origin(annotation)
    arguments = typing.get_args(annotation)
    if origin is typing.Union:
        non_none = [arg for arg in arguments if arg is not type(None)]
        if len(non_none) == 1 and type(None) in arguments:
            inner = _type_schema(non_none[0])
            return {**inner, "nullable": True}
        raise TypeError(f"unsupported union {annotation!r} in a service schema")
    if origin in (list, typing.List):
        return {"type": "array", "items": _type_schema(arguments[0])}
    if origin in (dict, typing.Dict):
        value_schema = (
            _type_schema(arguments[1]) if arguments else {"type": "object"}
        )
        return {"type": "object", "additionalProperties": value_schema}
    if is_dataclass(annotation):
        return {"$ref": f"#/components/schemas/{annotation.__name__}"}
    scalars = {
        int: {"type": "integer"},
        float: {"type": "number"},
        str: {"type": "string"},
        bool: {"type": "boolean"},
        dict: {"type": "object"},
    }
    if annotation in scalars:
        return dict(scalars[annotation])
    raise TypeError(f"unsupported annotation {annotation!r} in a service schema")


def _component_schema(cls) -> dict:
    """The OpenAPI object schema of one schema dataclass."""
    hints = typing.get_type_hints(cls)
    properties = {}
    required = []
    for schema_field in fields(cls):
        properties[schema_field.name] = _type_schema(hints[schema_field.name])
        if (
            schema_field.default is MISSING
            and schema_field.default_factory is MISSING
        ):
            required.append(schema_field.name)
    schema: dict = {"type": "object", "properties": properties}
    if required:
        schema["required"] = required
    description = (cls.__doc__ or "").strip().splitlines()
    if description:
        schema["description"] = description[0]
    return schema


def _ref(name: str) -> dict:
    return {"$ref": f"#/components/schemas/{name}"}


def _json_response(description: str, schema_name: str) -> dict:
    return {
        "description": description,
        "content": {"application/json": {"schema": _ref(schema_name)}},
    }


def _paths() -> dict:
    """The route map (kept in lockstep with the WSGI app)."""
    campaign_id = {
        "name": "campaign_id",
        "in": "path",
        "required": True,
        "schema": {"type": "string"},
        "description": "The campaign job id (the spec's content hash).",
    }
    return {
        "/": {
            "get": {
                "operationId": "service_info",
                "summary": "Service name, version and route map.",
                "responses": {"200": _json_response("Service description.", "ServiceInfo")},
            }
        },
        "/healthz": {
            "get": {
                "operationId": "health",
                "summary": "Liveness probe with queue depth and stale-job detection.",
                "description": (
                    "`status` is `degraded` (still 200) when any job is marked "
                    "running but its recorded worker pid is dead; the pool's "
                    "reaper re-queues such jobs on its next tick."
                ),
                "responses": {"200": _json_response("Service is up.", "HealthResponse")},
            }
        },
        "/metrics": {
            "get": {
                "operationId": "metrics",
                "summary": "Prometheus text exposition (format 0.0.4).",
                "description": (
                    "Queue depth, jobs by status, active workers, stale jobs, "
                    "process RSS, plus request counters and latency histograms "
                    "labelled by method and route template."
                ),
                "responses": {
                    "200": {
                        "description": "The metrics exposition.",
                        "content": {"text/plain": {"schema": {"type": "string"}}},
                    }
                },
            }
        },
        "/openapi.json": {
            "get": {
                "operationId": "openapi_schema",
                "summary": "This document (byte-identical to docs/openapi.json).",
                "responses": {
                    "200": {
                        "description": "The OpenAPI document.",
                        "content": {"application/json": {"schema": {"type": "object"}}},
                    }
                },
            }
        },
        "/campaigns": {
            "get": {
                "operationId": "list_campaigns",
                "summary": "All submitted campaigns, oldest first.",
                "responses": {"200": _json_response("Campaign summaries.", "CampaignList")},
            },
            "post": {
                "operationId": "submit_campaign",
                "summary": "Submit a campaign spec (idempotent on its content hash).",
                "description": (
                    "Exactly one of `spec`, `builtin` or `spec_toml` names the "
                    "campaign. Identical specs deduplicate onto one shared job "
                    "and one shared result store, whatever the submission "
                    "concurrency; the response says whether this submission "
                    "created the job (201) or attached to it (200)."
                ),
                "requestBody": {
                    "required": True,
                    "content": {
                        "application/json": {"schema": _ref("CampaignSubmission")}
                    },
                },
                "responses": {
                    "201": _json_response("Campaign created and queued.", "CampaignAccepted"),
                    "200": _json_response(
                        "Identical campaign already submitted; attached to it.",
                        "CampaignAccepted",
                    ),
                    "400": _json_response("Malformed JSON body.", "ErrorResponse"),
                    "422": _json_response(
                        "Invalid submission or campaign spec (the message is the "
                        "component registry's validation error).",
                        "ErrorResponse",
                    ),
                },
            },
        },
        "/campaigns/{campaign_id}": {
            "get": {
                "operationId": "campaign_status",
                "summary": "Job status plus store-backed completion counters.",
                "parameters": [campaign_id],
                "responses": {
                    "200": _json_response("Campaign status.", "CampaignStatus"),
                    "404": _json_response("Unknown campaign id.", "ErrorResponse"),
                },
            }
        },
        "/campaigns/{campaign_id}/cells": {
            "get": {
                "operationId": "campaign_cells",
                "summary": "Per-cell progress, straight from the result store.",
                "parameters": [
                    campaign_id,
                    {
                        "name": "offset",
                        "in": "query",
                        "required": False,
                        "schema": {"type": "integer", "default": 0},
                    },
                    {
                        "name": "limit",
                        "in": "query",
                        "required": False,
                        "schema": {"type": "integer", "default": 100, "maximum": 1000},
                    },
                ],
                "responses": {
                    "200": _json_response("Completed cells (paginated).", "CampaignCells"),
                    "404": _json_response("Unknown campaign id.", "ErrorResponse"),
                    "422": _json_response("Invalid pagination parameters.", "ErrorResponse"),
                },
            }
        },
        "/campaigns/{campaign_id}/report": {
            "get": {
                "operationId": "campaign_report",
                "summary": "The self-contained HTML dashboard over the job's store.",
                "parameters": [
                    campaign_id,
                    {
                        "name": "gantt",
                        "in": "query",
                        "required": False,
                        "schema": {"type": "integer", "default": 0},
                        "description": (
                            "Stored runs to re-simulate for the Gantt drill-down "
                            "(0 disables; re-simulation is CPU work per request)."
                        ),
                    },
                ],
                "responses": {
                    "200": {
                        "description": "The dashboard.",
                        "content": {"text/html": {"schema": {"type": "string"}}},
                    },
                    "404": _json_response("Unknown campaign id.", "ErrorResponse"),
                    "409": _json_response(
                        "The campaign has no completed cells yet.", "ErrorResponse"
                    ),
                },
            }
        },
        "/campaigns/{campaign_id}/events": {
            "get": {
                "operationId": "campaign_events",
                "summary": "Live campaign progress as Server-Sent Events.",
                "description": (
                    "Emits an immediate `snapshot` event, a `progress` event "
                    "whenever the completed-cell count or job status changes, "
                    "`: heartbeat` comments while idle, and a final `end` "
                    "event once the job reaches a terminal status. Event "
                    "`data` is the JSON progress payload (id, status, "
                    "completed_cells, total_cells, attempts)."
                ),
                "parameters": [
                    campaign_id,
                    {
                        "name": "poll",
                        "in": "query",
                        "required": False,
                        "schema": {"type": "number", "default": 0.5},
                        "description": "Store/job poll interval in seconds.",
                    },
                    {
                        "name": "heartbeat",
                        "in": "query",
                        "required": False,
                        "schema": {"type": "number", "default": 15.0},
                        "description": "Idle seconds between heartbeat comments.",
                    },
                    {
                        "name": "limit",
                        "in": "query",
                        "required": False,
                        "schema": {"type": "integer", "default": 0},
                        "description": (
                            "Close the stream after this many events "
                            "(0 = unbounded; heartbeats do not count)."
                        ),
                    },
                ],
                "responses": {
                    "200": {
                        "description": "The event stream.",
                        "content": {"text/event-stream": {"schema": {"type": "string"}}},
                    },
                    "404": _json_response("Unknown campaign id.", "ErrorResponse"),
                },
            }
        },
    }


def openapi_document() -> dict:
    """The complete OpenAPI document as plain data (deterministic)."""
    return {
        "openapi": OPENAPI_VERSION,
        "info": {
            "title": "repro campaign service",
            "version": repro.__version__,
            "description": (
                "Simulation-as-a-service over the repro campaign subsystem: "
                "submit declarative campaign specs, share cache-backed runs "
                "via content-hash deduplication, poll per-cell progress, and "
                "fetch the HTML dashboard."
            ),
        },
        "paths": _paths(),
        "components": {
            "schemas": {cls.__name__: _component_schema(cls) for cls in SCHEMA_CLASSES}
        },
    }


def openapi_json_text() -> str:
    """The exact JSON text served at ``/openapi.json`` and committed to docs."""
    return json.dumps(openapi_document(), indent=2, sort_keys=True) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Write or check the committed schema copy (``--output`` / ``--check``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.openapi",
        description="Generate or verify the committed OpenAPI document.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--output", default=None, help="write the document to this path")
    group.add_argument(
        "--check", default=None, metavar="PATH",
        help="fail (exit 1) unless PATH matches the generated document",
    )
    arguments = parser.parse_args(argv)
    text = openapi_json_text()
    if arguments.output:
        Path(arguments.output).write_text(text)
        print(f"OpenAPI document written to {arguments.output}")
        return 0
    committed = Path(arguments.check).read_text()
    if committed != text:
        print(
            f"{arguments.check} is out of date; regenerate with "
            "python -m repro.service.openapi --output docs/openapi.json",
            file=sys.stderr,
        )
        return 1
    print(f"{arguments.check} matches the live schema")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
