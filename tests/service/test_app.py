"""Handler-level tests of the HTTP surface (in-process WSGI, no sockets)."""

from __future__ import annotations

import json
import sys

import pytest

from repro.service.jobs import JOB_FIELDS
from repro.service.worker import run_job

from tests.service.conftest import tiny_spec_dict


def test_info_lists_every_endpoint(client):
    status, payload = client.get_json("/")
    assert status == 200
    assert payload["name"] == "repro campaign service"
    assert "POST /campaigns" in payload["endpoints"]
    assert "GET /campaigns/{id}/report" in payload["endpoints"]


def test_health_reports_queue_counters(client):
    status, payload = client.get_json("/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["jobs"] == {"queued": 0, "running": 0, "completed": 0, "failed": 0}


def test_submit_inline_spec_queues_job(client):
    status, payload = client.post_json("/campaigns", {"spec": tiny_spec_dict()})
    assert status == 201
    assert payload["status"] == "queued"
    assert payload["deduplicated"] is False
    assert payload["total_cells"] == 4
    assert payload["location"] == f"/campaigns/{payload['id']}"


def test_submit_builtin_by_name(client):
    status, payload = client.post_json("/campaigns", {"builtin": "smoke"})
    assert status == 201
    assert payload["name"] == "smoke"


def test_submit_toml_text(client):
    pytest.importorskip("tomllib")
    toml = """
[campaign]
name = "toml-submission"
m = [4]
heuristics = ["IE"]
scenarios_per_cell = 1
trials = 1
iterations = 2

[grid]
ncom = [5]
wmin = [1]
num_processors = [8]
"""
    status, payload = client.post_json("/campaigns", {"spec_toml": toml})
    assert status == 201
    assert payload["name"] == "toml-submission"
    assert payload["total_cells"] == 1


def test_duplicate_submission_returns_200_with_same_id(client):
    _, first = client.post_json("/campaigns", {"spec": tiny_spec_dict()})
    status, second = client.post_json("/campaigns", {"spec": tiny_spec_dict()})
    assert status == 200
    assert second["deduplicated"] is True
    assert second["id"] == first["id"]


def test_malformed_json_body_is_400(client):
    status, _, payload = client.request("POST", "/campaigns", body=b"{not json")
    assert status == 400
    assert "not valid JSON" in json.loads(payload)["error"]


def test_unknown_heuristic_is_422_with_registry_message(client):
    spec = tiny_spec_dict()
    spec["heuristics"] = ["NOPE"]
    status, payload = client.post_json("/campaigns", {"spec": spec})
    assert status == 422
    assert payload["error"] == "unknown heuristics in spec: ['NOPE']"


def test_unknown_builtin_is_422(client):
    status, payload = client.post_json("/campaigns", {"builtin": "nope"})
    assert status == 422
    assert "unknown built-in spec 'nope'" in payload["error"]


def test_invalid_toml_is_422(client):
    pytest.importorskip("tomllib")
    status, payload = client.post_json("/campaigns", {"spec_toml": "= broken"})
    assert status == 422
    assert "spec_toml is not valid TOML" in payload["error"]


def test_toml_without_tomllib_is_422(client, monkeypatch):
    """Python < 3.11 has no tomllib: a TOML submission is refused, not a 500."""
    monkeypatch.setitem(sys.modules, "tomllib", None)
    status, payload = client.post_json("/campaigns", {"spec_toml": "[campaign]"})
    assert status == 422
    assert "TOML specs need Python >= 3.11" in payload["error"]


def test_multiple_spec_sources_is_422(client):
    status, payload = client.post_json(
        "/campaigns", {"builtin": "smoke", "spec": tiny_spec_dict()}
    )
    assert status == 422
    assert "exactly one of" in payload["error"]


def test_unknown_submission_field_is_422(client):
    status, payload = client.post_json("/campaigns", {"builtin": "smoke", "bogus": 1})
    assert status == 422
    assert "unknown submission fields ['bogus']" in payload["error"]


def test_sampler_submission_field_is_rejected(service_state, client):
    # The engine has a single driver; the former "sampler" option is an
    # unknown field like any other and never reaches the queue.
    status, payload = client.post_json("/campaigns", {"builtin": "smoke", "sampler": "bogus"})
    assert status == 422
    assert "unknown submission fields ['sampler']" in payload["error"]
    assert service_state.queue.jobs() == []


def test_job_document_with_legacy_sampler_option_still_runs(service_state, client):
    # Job files written before the option was removed may still carry it;
    # the worker ignores the key.
    _, accepted = client.post_json("/campaigns", {"spec": tiny_spec_dict("legacy")})
    job = service_state.queue.job(accepted["id"])
    service_state.queue.update(
        accepted["id"], options={**job["options"], "sampler": "perslot"}
    )
    assert run_job(service_state.queue.job_path(accepted["id"])) == 0
    _, payload = client.get_json(accepted["location"])
    assert payload["status"] == "completed"
    assert payload["completed_cells"] == payload["total_cells"]


def test_job_document_with_legacy_backend_field_is_served_and_runs(service_state, client):
    # Job files written while the store backend was selectable carry
    # "backend": "jsonl"; the status handler and the worker ignore the key.
    _, accepted = client.post_json("/campaigns", {"spec": tiny_spec_dict("legacy-backend")})
    job = service_state.queue.update(accepted["id"], backend="jsonl")
    assert sorted(job) == sorted(JOB_FIELDS + ("backend",))
    status, payload = client.get_json(accepted["location"])
    assert status == 200
    assert payload["status"] == "queued"
    assert "backend" not in payload
    assert run_job(service_state.queue.job_path(accepted["id"])) == 0
    _, payload = client.get_json(accepted["location"])
    assert payload["status"] == "completed"
    assert payload["completed_cells"] == payload["total_cells"]


def test_unknown_spec_key_is_422(client):
    spec = tiny_spec_dict()
    spec["bogus_key"] = True
    status, payload = client.post_json("/campaigns", {"spec": spec})
    assert status == 422
    assert "invalid campaign spec" in payload["error"]


def test_unknown_campaign_is_404(client):
    for path in ("/campaigns/nope", "/campaigns/nope/cells", "/campaigns/nope/report"):
        status, payload = client.get_json(path)
        assert status == 404
        assert "unknown campaign" in payload["error"]


def test_unknown_route_is_404_and_wrong_method_is_405(client):
    status, _ = client.get_json("/bogus")
    assert status == 404
    status, _, _ = client.request("POST", "/healthz")
    assert status == 405


def test_status_of_queued_job_shows_zero_progress(client):
    _, accepted = client.post_json("/campaigns", {"spec": tiny_spec_dict()})
    status, payload = client.get_json(accepted["location"])
    assert status == 200
    assert payload["status"] == "queued"
    assert payload["completed_cells"] == 0
    assert payload["remaining_cells"] == 4
    assert payload["by_heuristic"] == []


def test_report_before_any_cells_is_409(client):
    _, accepted = client.post_json("/campaigns", {"spec": tiny_spec_dict()})
    status, payload = client.get_json(accepted["report"])
    assert status == 409
    assert "no completed cells yet" in payload["error"]


def test_full_lifecycle_status_cells_report(service_state, client):
    _, accepted = client.post_json("/campaigns", {"spec": tiny_spec_dict()})
    # Run the job in-process (the pool path is covered by the e2e tests).
    assert run_job(service_state.queue.job_path(accepted["id"])) == 0

    status, payload = client.get_json(accepted["location"])
    assert status == 200
    assert payload["status"] == "completed"
    assert payload["completed_cells"] == payload["total_cells"] == 4
    assert {entry["heuristic"]: entry["done"] for entry in payload["by_heuristic"]} == {
        "IE": 2,
        "RANDOM": 2,
    }

    status, cells = client.get_json(accepted["location"] + "/cells")
    assert status == 200
    assert cells["count"] == 4
    assert [cell["cell"] for cell in cells["cells"]] == [0, 1, 2, 3]
    assert all(cell["success"] for cell in cells["cells"])

    # Pagination slices the same canonical ordering.
    status, page = client.get_json(accepted["location"] + "/cells", query="offset=1&limit=2")
    assert page["count"] == 2
    assert [cell["cell"] for cell in page["cells"]] == [1, 2]

    status, headers, body = client.request("GET", accepted["report"])
    assert status == 200
    assert headers["Content-Type"].startswith("text/html")
    assert body.startswith(b"<!DOCTYPE html>")

    status, listing = client.get_json("/campaigns")
    assert listing["count"] == 1
    assert listing["campaigns"][0]["status"] == "completed"


def test_spec_metrics_settings_survive_into_job_options(service_state, client):
    # collect_metrics/metrics_stride are volatile spec fields outside the
    # persisted snapshot; the submit handler must fold them into the job
    # options or they would be lost (regression test).
    spec = tiny_spec_dict("metrics-spec")
    spec["collect_metrics"] = True
    spec["metrics_stride"] = 32
    _, accepted = client.post_json("/campaigns", {"spec": spec})
    job = service_state.queue.job(accepted["id"])
    assert job["options"]["collect_metrics"] is True
    assert job["options"]["metrics_stride"] == 32
    # An explicit submission option still wins over the spec's setting.
    spec2 = tiny_spec_dict("metrics-override")
    spec2["collect_metrics"] = True
    _, accepted2 = client.post_json(
        "/campaigns", {"spec": spec2, "collect_metrics": False}
    )
    job2 = service_state.queue.job(accepted2["id"])
    assert job2["options"]["collect_metrics"] is False
    # The job runs and the stored cells carry series.
    assert run_job(service_state.queue.job_path(accepted["id"])) == 0
    _, cells = client.get_json(accepted["location"] + "/cells")
    assert all(cell["has_metrics"] for cell in cells["cells"])


def test_invalid_pagination_is_422(client):
    _, accepted = client.post_json("/campaigns", {"spec": tiny_spec_dict()})
    status, payload = client.get_json(accepted["location"] + "/cells", query="offset=-1")
    assert status == 422
    status, payload = client.get_json(accepted["location"] + "/cells", query="limit=xyz")
    assert status == 422
    assert "must be an integer" in payload["error"]
    status, payload = client.get_json(accepted["location"] + "/cells", query="limit=100000")
    assert status == 422


def test_openapi_endpoint_serves_committed_bytes(client):
    from repro.service.openapi import openapi_json_text

    status, headers, body = client.request("GET", "/openapi.json")
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    assert body.decode("utf-8") == openapi_json_text()
