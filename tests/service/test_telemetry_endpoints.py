"""The observability surface: /metrics, SSE events, enriched /healthz."""

from __future__ import annotations

import io
import json

import pytest

from repro.service.app import create_wsgi_app, route_template
from repro.service.worker import run_job

from tests.service.conftest import tiny_spec_dict


def wsgi_raw(state, method, path, query=""):
    """Call the WSGI app and return (status, headers, response iterable)."""
    app = create_wsgi_app(state)
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(headers)

    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": "0",
        "wsgi.input": io.BytesIO(b""),
    }
    result = app(environ, start_response)
    return captured["status"], captured["headers"], result


def drain(result):
    """Exhaust a WSGI result and close it if it supports close()."""
    text = b"".join(result).decode()
    closer = getattr(result, "close", None)
    if closer is not None:
        closer()
    return text


def parse_sse(text):
    """Split an SSE byte stream into (event, id, data) tuples plus comments."""
    events, comments = [], []
    for block in text.split("\n\n"):
        if not block.strip():
            continue
        if block.startswith(":"):
            comments.append(block)
            continue
        fields = {}
        for line in block.splitlines():
            key, _, value = line.partition(":")
            fields[key] = value.strip()
        if "event" in fields:
            events.append(
                (fields["event"], int(fields["id"]), json.loads(fields["data"]))
            )
    return events, comments


def submit(client, name="sse-test"):
    status, payload = client.post_json("/campaigns", {"spec": tiny_spec_dict(name)})
    assert status in (200, 201)
    return payload["id"]


# ----------------------------------------------------------------------
# /healthz enrichment
# ----------------------------------------------------------------------
class TestHealth:
    def test_reports_queue_depth(self, service_state, client):
        submit(client)
        status, payload = client.get_json("/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["queue_depth"] == 1
        assert payload["stale_jobs"] == 0

    def test_degraded_on_stale_running_job(self, service_state, client):
        job_id = submit(client)
        # A job claiming to run under a pid that cannot exist -> stale.
        service_state.queue.update(job_id, status="running", pid=2**22 + 12345)
        status, payload = client.get_json("/healthz")
        assert status == 200
        assert payload["status"] == "degraded"
        assert payload["stale_jobs"] == 1
        assert service_state.queue.stale_jobs() == [job_id]

    def test_degraded_while_last_dispatcher_tick_failed(self, service_state, client):
        service_state.pool.last_tick_failed = True
        assert client.get_json("/healthz")[1]["status"] == "degraded"
        service_state.pool.last_tick_failed = False
        assert client.get_json("/healthz")[1]["status"] == "ok"


# ----------------------------------------------------------------------
# /metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_prometheus_exposition_format(self, service_state, client):
        submit(client)
        client.get_json("/healthz")
        status, headers, result = wsgi_raw(service_state, "GET", "/metrics")
        text = drain(result)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert "# TYPE repro_job_queue_depth gauge" in text
        assert "repro_job_queue_depth 1" in text
        assert 'repro_jobs{status="queued"} 1' in text
        assert "# TYPE repro_http_requests_total counter" in text
        assert (
            'repro_http_requests_total{method="GET",route="/healthz",status="200"} 1'
            in text
        )
        assert "# TYPE repro_http_request_duration_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_http_request_duration_seconds_count" in text
        # The gauge block renders even before any stream opened.
        assert "repro_sse_streams_active 0" in text

    def test_dispatcher_errors_counter_starts_at_zero(self, service_state):
        _, _, result = wsgi_raw(service_state, "GET", "/metrics")
        text = drain(result)
        assert "# TYPE repro_dispatcher_errors_total counter" in text
        assert "repro_dispatcher_errors_total 0" in text.splitlines()
        # Failures counted by the pool are caught up at the next scrape.
        service_state.pool.tick_errors = 2
        _, _, result = wsgi_raw(service_state, "GET", "/metrics")
        assert "repro_dispatcher_errors_total 2" in drain(result).splitlines()

    def test_rss_gauge_present_on_linux(self, service_state):
        _, _, result = wsgi_raw(service_state, "GET", "/metrics")
        text = drain(result)
        lines = [
            line
            for line in text.splitlines()
            if line.startswith("process_resident_memory_bytes ")
        ]
        if lines:  # rss may be unavailable on exotic platforms
            assert float(lines[0].split()[1]) > 0

    def test_request_labels_use_route_templates(self, service_state, client):
        job_id = submit(client)
        client.get_json(f"/campaigns/{job_id}")
        _, _, result = wsgi_raw(service_state, "GET", "/metrics")
        text = drain(result)
        assert 'route="/campaigns/{id}"' in text
        assert job_id not in text  # raw ids never become label values


class TestRouteTemplate:
    @pytest.mark.parametrize(
        "path, expected",
        [
            ("/", "/"),
            ("/healthz", "/healthz"),
            ("/metrics", "/metrics"),
            ("/openapi.json", "/openapi.json"),
            ("/campaigns", "/campaigns"),
            ("/campaigns/abc123", "/campaigns/{id}"),
            ("/campaigns/abc123/cells", "/campaigns/{id}/cells"),
            ("/campaigns/abc123/report", "/campaigns/{id}/report"),
            ("/campaigns/abc123/events", "/campaigns/{id}/events"),
            ("/no/such/route", "<unmatched>"),
        ],
    )
    def test_template(self, path, expected):
        assert route_template(path) == expected


# ----------------------------------------------------------------------
# SSE events
# ----------------------------------------------------------------------
class TestEvents:
    def test_snapshot_for_queued_job(self, service_state, client):
        job_id = submit(client)
        status, headers, result = wsgi_raw(
            service_state, "GET", f"/campaigns/{job_id}/events",
            query="poll=0.05&limit=1",
        )
        text = drain(result)
        assert status == 200
        assert headers["Content-Type"].startswith("text/event-stream")
        assert "Content-Length" not in headers
        assert text.startswith("retry: 2000\n\n")
        events, _ = parse_sse(text)
        assert events[0][0] == "snapshot"
        assert events[0][2]["status"] == "queued"
        assert events[0][2]["completed_cells"] == 0
        assert events[0][2]["total_cells"] == 4

    def test_completed_job_streams_snapshot_then_end(self, service_state, client):
        job_id = submit(client)
        assert run_job(service_state.queue.job_path(job_id)) == 0
        status, _, result = wsgi_raw(
            service_state, "GET", f"/campaigns/{job_id}/events", query="poll=0.05"
        )
        text = drain(result)
        events, _ = parse_sse(text)
        assert [event[0] for event in events] == ["snapshot", "end"]
        assert events[-1][2]["status"] == "completed"
        assert events[-1][2]["completed_cells"] == 4
        # Event ids increment monotonically.
        assert [event[1] for event in events] == [0, 1]

    def test_progress_event_on_status_change(self, service_state, client):
        job_id = submit(client)
        stream = service_state._event_stream(
            job_id, poll=0.02, heartbeat=60.0, limit=0
        )
        chunks = [next(stream), next(stream)]  # retry preamble + snapshot
        assert "event: snapshot" in chunks[1]
        # Complete the job while the stream is polling.
        assert run_job(service_state.queue.job_path(job_id)) == 0
        rest = "".join(stream)
        events, _ = parse_sse(rest)
        kinds = [event[0] for event in events]
        assert kinds[-1] == "end"
        assert events[-1][2]["completed_cells"] == 4

    def test_heartbeats_while_idle(self, service_state, client):
        job_id = submit(client)
        stream = service_state._event_stream(
            job_id, poll=0.01, heartbeat=0.02, limit=0
        )
        chunks = [next(stream), next(stream)]
        # Collect a few more chunks; the job never progresses, so they must
        # all be heartbeat comments.
        for _ in range(2):
            chunks.append(next(stream))
        stream.close()
        assert chunks[-1] == ": heartbeat\n\n"

    def test_unknown_campaign_404(self, client):
        status, payload = client.get_json("/campaigns/nope/events")
        assert status == 404

    def test_invalid_query_params_rejected(self, service_state, client):
        job_id = submit(client)
        for query in ("poll=abc", "poll=0", "heartbeat=-1", "limit=-2"):
            status, _, result = wsgi_raw(
                service_state, "GET", f"/campaigns/{job_id}/events", query=query
            )
            drain(result)
            assert status == 422, query

    def test_gauge_tracks_stream_lifecycle_and_disconnect(self, service_state, client):
        job_id = submit(client)
        gauge = service_state._sse_streams
        stream = service_state._event_stream(job_id, poll=0.01, heartbeat=60.0, limit=0)
        next(stream)
        assert gauge.value() == 1
        # A client disconnect closes the generator mid-stream; the finally
        # block must still decrement the gauge.
        stream.close()
        assert gauge.value() == 0

    def test_wsgi_close_propagates_to_generator(self, service_state, client):
        job_id = submit(client)
        _, _, result = wsgi_raw(
            service_state, "GET", f"/campaigns/{job_id}/events",
            query="poll=0.05",
        )
        iterator = iter(result)
        next(iterator)
        assert service_state._sse_streams.value() == 1
        result.close()
        assert service_state._sse_streams.value() == 0
        # close() also records the request into the metrics.
        assert (
            service_state._requests_total.value(
                method="GET", route="/campaigns/{id}/events", status="200"
            )
            == 1
        )
        result.close()  # idempotent

