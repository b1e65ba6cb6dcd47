"""The campaign service: shared endpoint handlers plus a stdlib WSGI app.

The HTTP surface is implemented in :class:`ServiceState` — every handler
takes plain data and returns ``(status, payload, content_type)``.
:func:`create_wsgi_app` exposes it as a pure-stdlib WSGI application, served
by a threading ``wsgiref`` server via :func:`serve`; it has zero
dependencies beyond the Python standard library.

Start a service from Python::

    from repro.service.app import ServiceConfig, serve
    serve(ServiceConfig(root="/var/lib/repro", port=8000, workers=4))

or from the CLI: ``repro serve --root /var/lib/repro --workers 4``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple, Union
from urllib.parse import parse_qs

from repro.exceptions import ReproError
from repro.experiments.spec import (
    BUILTIN_SPEC_NAMES,
    CampaignSpec,
    builtin_spec,
    parse_spec_text,
)
from repro.experiments.store import ResultStore, store_status
from repro.service import openapi as openapi_module
from repro.service.jobs import JobQueue, WorkerPool
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    process_rss_bytes,
)
from repro.telemetry.tracer import shared_tracer
from repro.service.schemas import (
    CampaignAccepted,
    CampaignCells,
    CampaignList,
    CampaignStatus,
    CampaignSubmission,
    CampaignSummary,
    ErrorResponse,
    HealthResponse,
    HeuristicProgress,
    ServiceError,
    ServiceInfo,
    cell_record_from_store,
)

__all__ = [
    "ServiceConfig",
    "ServiceState",
    "create_wsgi_app",
    "route_template",
    "serve",
]

#: A handler's raw result: HTTP status, payload (dict => JSON), content type.
Response = Tuple[int, Union[dict, str], str]

MAX_CELL_PAGE = 1000

ENDPOINTS = {
    "GET /": "service name, version and this route map",
    "GET /healthz": "liveness probe with queue depth and stale-job detection",
    "GET /metrics": "Prometheus text exposition (queue, workers, requests, RSS)",
    "GET /openapi.json": "the OpenAPI schema (matches docs/openapi.json)",
    "GET /campaigns": "all submitted campaigns",
    "POST /campaigns": "submit a campaign spec (idempotent on content hash)",
    "GET /campaigns/{id}": "job status plus store-backed completion counters",
    "GET /campaigns/{id}/cells": "per-cell progress from the result store",
    "GET /campaigns/{id}/report": "the HTML dashboard over the job's store",
    "GET /campaigns/{id}/events": "live progress as Server-Sent Events",
}

#: Terminal job statuses: the SSE stream emits ``end`` and stops on these.
_TERMINAL_STATUSES = ("completed", "failed")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` needs to stand up a service.

    Example::

        >>> config = ServiceConfig(root="/tmp/repro-service", workers=4)
        >>> config.port
        8000
    """

    #: Durable service root: ``jobs/``, ``stores/`` and ``logs/`` live here.
    root: Union[str, Path] = "service-root"
    host: str = "127.0.0.1"
    port: int = 8000
    #: Concurrent worker processes (one campaign job each).
    workers: int = 2
    #: Abnormal worker deaths per job before it is marked failed.
    max_attempts: int = 3
    #: Dispatcher poll interval in seconds.
    poll_interval: float = 0.2
    #: Attach a span tracer: the queue/pool emit ``job.*`` lifecycle events
    #: and every worker traces its runs into ``<root>/telemetry/``.
    trace: bool = False


class ServiceState:
    """The service core: a job queue, a worker pool, handlers.

    Handlers return ``(status, payload, content_type)`` tuples; the WSGI
    app below only translates between requests/responses and these tuples.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.queue = JobQueue(config.root)
        trace_dir = Path(config.root) / "telemetry" if config.trace else None
        if trace_dir is not None:
            self.queue.tracer = shared_tracer(trace_dir)
        self.pool = WorkerPool(
            self.queue,
            workers=config.workers,
            poll_interval=config.poll_interval,
            max_attempts=config.max_attempts,
            trace_dir=trace_dir,
        )
        self.metrics = MetricsRegistry()
        self._requests_total = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests handled, by method, route template and status.",
        )
        self._request_latency = self.metrics.histogram(
            "repro_http_request_duration_seconds",
            "HTTP request latency in seconds, by method and route template.",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._sse_streams = self.metrics.gauge(
            "repro_sse_streams_active",
            "Server-Sent-Event progress streams currently open.",
        )
        self._sse_streams.set(0)
        self._queue_depth = self.metrics.gauge(
            "repro_job_queue_depth",
            "Jobs waiting to run (status queued).",
        )
        self._jobs_gauge = self.metrics.gauge(
            "repro_jobs",
            "Jobs known to the queue, by status.",
        )
        self._workers_gauge = self.metrics.gauge(
            "repro_workers_active",
            "Worker processes currently running a job.",
        )
        self._stale_gauge = self.metrics.gauge(
            "repro_jobs_stale",
            "Jobs marked running whose recorded worker pid is dead.",
        )
        self._dispatcher_errors = self.metrics.counter(
            "repro_dispatcher_errors_total",
            "Worker-pool dispatcher ticks that raised.",
        )
        self._dispatcher_errors.inc(0)
        # Serialises the counter catch-up of concurrent scrapes.
        self._scrape_lock = threading.Lock()
        self._rss_gauge = self.metrics.gauge(
            "process_resident_memory_bytes",
            "Resident-set size of the service process in bytes.",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Recover orphaned jobs and start the worker pool."""
        self.pool.start()

    def stop(self) -> None:
        """Stop the pool (live workers are terminated and re-queued on recover)."""
        self.pool.stop()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def handle_info(self) -> Response:
        """``GET /``."""
        import repro

        payload = ServiceInfo(
            name="repro campaign service",
            version=repro.__version__,
            description=(
                "Submit campaign specs, share deduplicated runs, poll "
                "per-cell progress and fetch HTML reports."
            ),
            endpoints=dict(ENDPOINTS),
        )
        return 200, payload.as_dict(), "application/json"

    def handle_health(self) -> Response:
        """``GET /healthz``."""
        counts = self.queue.counts()
        stale = self.queue.stale_jobs()
        payload = HealthResponse(
            status="degraded" if stale or self.pool.last_tick_failed else "ok",
            workers=self.pool.active_workers,
            jobs=counts,
            queue_depth=counts.get("queued", 0),
            stale_jobs=len(stale),
        )
        return 200, payload.as_dict(), "application/json"

    def handle_metrics(self) -> Response:
        """``GET /metrics`` — Prometheus text exposition format 0.0.4.

        Point-in-time gauges (queue depth, jobs by status, workers, RSS)
        are refreshed at scrape time; the request counter/histogram
        accumulate across the process lifetime.
        """
        counts = self.queue.counts()
        for status, count in counts.items():
            self._jobs_gauge.set(count, status=status)
        self._queue_depth.set(counts.get("queued", 0))
        self._workers_gauge.set(self.pool.active_workers)
        self._stale_gauge.set(len(self.queue.stale_jobs()))
        with self._scrape_lock:
            self._dispatcher_errors.inc(
                self.pool.tick_errors - self._dispatcher_errors.value()
            )
        rss = process_rss_bytes()
        if rss is not None:
            self._rss_gauge.set(rss)
        return 200, self.metrics.render(), "text/plain; version=0.0.4; charset=utf-8"

    def observe_request(
        self, method: str, route: str, status: int, seconds: float
    ) -> None:
        """Record one handled request into the service metrics.

        *route* must be a route template (``/campaigns/{id}``), never a raw
        path — label cardinality stays bounded by the route table.
        """
        self._requests_total.inc(method=method, route=route, status=str(status))
        self._request_latency.observe(seconds, method=method, route=route)

    def handle_openapi(self) -> Response:
        """``GET /openapi.json`` (byte-identical to ``docs/openapi.json``)."""
        return 200, openapi_module.openapi_json_text(), "application/json"

    def handle_submit(self, body: bytes) -> Response:
        """``POST /campaigns``: validate, deduplicate, queue."""
        try:
            payload = json.loads(body.decode("utf-8") if body else "")
        except (ValueError, UnicodeDecodeError) as error:
            raise ServiceError(f"request body is not valid JSON: {error}", status=400)
        submission = CampaignSubmission.from_payload(payload)
        spec = self._resolve_spec(submission)
        options = submission.options()
        # collect_metrics/metrics_stride are volatile spec fields excluded
        # from the persisted spec snapshot (and from its identity hash), so
        # resolve them into the job options here or a TOML submission with
        # `collect_metrics = true` would silently lose it.
        if options["collect_metrics"] is None:
            options["collect_metrics"] = spec.collect_metrics
        if options["metrics_stride"] is None:
            options["metrics_stride"] = spec.metrics_stride
        job, deduplicated = self.queue.submit(spec, options=options)
        accepted = CampaignAccepted(
            id=job["id"],
            name=job["name"],
            status=job["status"],
            deduplicated=deduplicated,
            total_cells=job["total_cells"],
            location=f"/campaigns/{job['id']}",
            report=f"/campaigns/{job['id']}/report",
        )
        return (200 if deduplicated else 201), accepted.as_dict(), "application/json"

    def handle_list(self) -> Response:
        """``GET /campaigns``."""
        summaries = []
        for job in self.queue.jobs():
            completed, _, _ = self._store_progress(job)
            summaries.append(
                CampaignSummary(
                    id=job["id"],
                    name=job.get("name", ""),
                    status=job.get("status", "queued"),
                    completed_cells=completed,
                    total_cells=job.get("total_cells", 0),
                    submitted_at=job.get("submitted_at"),
                )
            )
        payload = CampaignList(count=len(summaries), campaigns=summaries)
        return 200, payload.as_dict(), "application/json"

    def handle_status(self, job_id: str) -> Response:
        """``GET /campaigns/{id}``."""
        job = self._job_or_404(job_id)
        completed, total, by_heuristic = self._store_progress(job)
        payload = CampaignStatus(
            id=job["id"],
            name=job.get("name", ""),
            status=job.get("status", "queued"),
            attempts=job.get("attempts", 0),
            total_cells=total,
            completed_cells=completed,
            remaining_cells=max(0, total - completed),
            by_heuristic=by_heuristic,
            error=job.get("error"),
            submitted_at=job.get("submitted_at"),
            started_at=job.get("started_at"),
            finished_at=job.get("finished_at"),
            options=job.get("options", {}),
        )
        return 200, payload.as_dict(), "application/json"

    def handle_cells(self, job_id: str, query: Dict[str, str]) -> Response:
        """``GET /campaigns/{id}/cells`` (paginated, straight from the store)."""
        job = self._job_or_404(job_id)
        offset = self._int_query(query, "offset", 0, minimum=0)
        limit = self._int_query(query, "limit", 100, minimum=1, maximum=MAX_CELL_PAGE)
        records = []
        store = self._open_store(job)
        if store is not None:
            try:
                records = store.records()
            finally:
                store.close()
        page = records[offset : offset + limit]
        payload = CampaignCells(
            id=job["id"],
            total_cells=job.get("total_cells", 0),
            completed_cells=len(records),
            offset=offset,
            limit=limit,
            count=len(page),
            cells=[cell_record_from_store(record) for record in page],
        )
        return 200, payload.as_dict(), "application/json"

    def handle_report(self, job_id: str, query: Dict[str, str]) -> Response:
        """``GET /campaigns/{id}/report`` — the PR 7 HTML dashboard."""
        from repro.metrics.html import render_html_report

        job = self._job_or_404(job_id)
        gantt = self._int_query(query, "gantt", 0, minimum=0)
        store = self._open_store(job)
        if store is None:
            raise ServiceError(
                f"campaign {job_id} has no completed cells yet "
                f"(status {job.get('status', 'queued')!r})",
                status=409,
            )
        try:
            results = store.results()
            spec = store.spec
        finally:
            store.close()
        if not results:
            raise ServiceError(
                f"campaign {job_id} has no completed cells yet "
                f"(status {job.get('status', 'queued')!r})",
                status=409,
            )
        html = render_html_report(results, spec, gantt_runs=gantt)
        return 200, html, "text/html; charset=utf-8"

    def handle_events(self, job_id: str, query: Dict[str, str]) -> Response:
        """``GET /campaigns/{id}/events`` — live progress as Server-Sent Events.

        The payload is a *generator of SSE chunks* (strings), not a JSON
        document; both adapters stream it without buffering.  Protocol:

        - ``event: snapshot`` — current status/progress, sent immediately.
        - ``event: progress`` — sent whenever the completed-cell count or
          job status changes (polled every ``poll`` seconds, default 0.5).
        - ``: heartbeat`` comment lines after ``heartbeat`` idle seconds
          (default 15) so proxies do not drop the connection.
        - ``event: end`` — final state once the job reaches a terminal
          status (or vanishes); the stream then closes.

        ``limit`` (default 0 = unbounded) caps the number of *events*
        (snapshot/progress/end, not heartbeats) before the stream closes —
        mainly for tests and one-shot curl probes.
        """
        self._job_or_404(job_id)
        poll = self._float_query(query, "poll", 0.5, minimum=0.05, maximum=30.0)
        heartbeat = self._float_query(query, "heartbeat", 15.0, minimum=0.1, maximum=300.0)
        limit = self._int_query(query, "limit", 0, minimum=0)
        stream = self._event_stream(job_id, poll=poll, heartbeat=heartbeat, limit=limit)
        return 200, stream, "text/event-stream; charset=utf-8"

    def _event_stream(
        self, job_id: str, *, poll: float, heartbeat: float, limit: int
    ) -> Iterator[str]:
        """The SSE chunk generator behind :meth:`handle_events`."""

        def _format(event: str, event_id: int, data: dict) -> str:
            return (
                f"event: {event}\nid: {event_id}\n"
                f"data: {json.dumps(data, sort_keys=True)}\n\n"
            )

        def _progress_payload(job: dict) -> dict:
            completed, total, _ = self._store_progress(job)
            return {
                "id": job["id"],
                "status": job.get("status", "queued"),
                "completed_cells": completed,
                "total_cells": total,
                "attempts": job.get("attempts", 0),
            }

        self._sse_streams.inc()
        try:
            event_id = 0
            emitted = 0
            yield "retry: 2000\n\n"
            job = self.queue.job(job_id)
            last = _progress_payload(job) if job is not None else None
            if last is not None:
                yield _format("snapshot", event_id, last)
                emitted += 1
            last_activity = time.monotonic()
            while True:
                if job is None:
                    yield _format("end", event_id + 1, {"id": job_id, "status": "gone"})
                    return
                if job.get("status") in _TERMINAL_STATUSES:
                    event_id += 1
                    yield _format("end", event_id, _progress_payload(job))
                    return
                if limit and emitted >= limit:
                    return
                time.sleep(poll)
                job = self.queue.job(job_id)
                current = _progress_payload(job) if job is not None else None
                if current is not None and current != last:
                    if job.get("status") not in _TERMINAL_STATUSES:
                        event_id += 1
                        yield _format("progress", event_id, current)
                        emitted += 1
                    last = current
                    last_activity = time.monotonic()
                elif time.monotonic() - last_activity >= heartbeat:
                    yield ": heartbeat\n\n"
                    last_activity = time.monotonic()
        finally:
            self._sse_streams.dec()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_spec(self, submission: CampaignSubmission) -> CampaignSpec:
        """Coerce the submission's spec source into a validated CampaignSpec."""
        if submission.builtin is not None:
            if submission.builtin not in BUILTIN_SPEC_NAMES:
                raise ServiceError(
                    f"unknown built-in spec {submission.builtin!r}; "
                    f"available: {list(BUILTIN_SPEC_NAMES)}"
                )
            return builtin_spec(submission.builtin)
        if submission.spec_toml is not None:
            return self._spec_from_mapping(
                parse_spec_text(submission.spec_toml, toml=True, source="spec_toml")
            )
        return self._spec_from_mapping(submission.spec)

    @staticmethod
    def _spec_from_mapping(data: dict) -> CampaignSpec:
        try:
            return CampaignSpec.from_dict(data)
        except TypeError as error:
            # Flat payloads with unknown keys surface as constructor errors.
            raise ServiceError(f"invalid campaign spec: {error}")

    def _job_or_404(self, job_id: str) -> dict:
        job = self.queue.job(job_id)
        if job is None:
            raise ServiceError(f"unknown campaign {job_id!r}", status=404)
        return job

    def _open_store(self, job: dict) -> Optional[ResultStore]:
        directory = self.queue.store_dir(job["id"])
        if not (directory / "manifest.json").exists():
            return None
        return ResultStore.open(directory)

    def _store_progress(self, job: dict):
        """``(completed, total, by_heuristic)`` from the job's store, if any."""
        total = job.get("total_cells", 0)
        store = self._open_store(job)
        if store is None:
            return 0, total, []
        try:
            status = store_status(store)
        finally:
            store.close()
        by_heuristic = [
            HeuristicProgress(heuristic=name, done=done, total=per_total)
            for name, done, per_total in status.by_heuristic
        ]
        return status.completed, status.total_cells, by_heuristic

    @staticmethod
    def _int_query(
        query: Dict[str, str],
        name: str,
        default: int,
        *,
        minimum: int,
        maximum: Optional[int] = None,
    ) -> int:
        raw = query.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ServiceError(f"query parameter {name!r} must be an integer, got {raw!r}")
        if value < minimum or (maximum is not None and value > maximum):
            bound = f">= {minimum}" + (f" and <= {maximum}" if maximum else "")
            raise ServiceError(f"query parameter {name!r} must be {bound}, got {value}")
        return value

    @staticmethod
    def _float_query(
        query: Dict[str, str],
        name: str,
        default: float,
        *,
        minimum: float,
        maximum: Optional[float] = None,
    ) -> float:
        raw = query.get(name)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ServiceError(f"query parameter {name!r} must be a number, got {raw!r}")
        if value < minimum or (maximum is not None and value > maximum):
            bound = f">= {minimum}" + (f" and <= {maximum}" if maximum else "")
            raise ServiceError(f"query parameter {name!r} must be {bound}, got {value}")
        return value


# ----------------------------------------------------------------------
# WSGI adapter (stdlib-only)
# ----------------------------------------------------------------------
_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}


def _first_values(query_string: str) -> Dict[str, str]:
    return {key: values[0] for key, values in parse_qs(query_string).items()}


def route_template(path: str) -> str:
    """The bounded-cardinality route label for *path* (metrics only).

    Raw paths would make every campaign id a distinct Prometheus label
    value; the template collapses them onto the route table.
    """
    parts = [part for part in path.split("/") if part]
    if not parts:
        return "/"
    if parts[0] in ("healthz", "metrics", "openapi.json") and len(parts) == 1:
        return "/" + parts[0]
    if parts[0] == "campaigns":
        if len(parts) == 1:
            return "/campaigns"
        if len(parts) == 2:
            return "/campaigns/{id}"
        if len(parts) == 3 and parts[2] in ("cells", "report", "events"):
            return "/campaigns/{id}/" + parts[2]
    return "<unmatched>"


class _ObservedStream:
    """WSGI response iterable over a chunk generator (SSE streaming).

    Encodes each string chunk, and on ``close()`` — which WSGI servers call
    even when the client disconnects mid-stream — closes the underlying
    generator (running its cleanup) and fires the observation callback
    exactly once.
    """

    def __init__(self, chunks: Iterator[str], on_close: Callable[[], None]):
        self._chunks = chunks
        self._on_close = on_close
        self._closed = False

    def __iter__(self) -> Iterator[bytes]:
        for chunk in self._chunks:
            yield chunk.encode("utf-8")

    def close(self) -> None:
        """Close the chunk generator and record the request once."""
        if self._closed:
            return
        self._closed = True
        closer = getattr(self._chunks, "close", None)
        if closer is not None:
            closer()
        self._on_close()


def create_wsgi_app(state: ServiceState) -> Callable:
    """A WSGI application over *state*."""

    def dispatch(method: str, path: str, query: Dict[str, str], body: bytes) -> Response:
        """Route one request to the matching ServiceState handler."""
        parts = [part for part in path.split("/") if part]
        if not parts:
            route: Tuple[str, ...] = ()
        else:
            route = tuple(parts)
        if route == ():
            if method == "GET":
                return state.handle_info()
        elif route == ("healthz",):
            if method == "GET":
                return state.handle_health()
        elif route == ("metrics",):
            if method == "GET":
                return state.handle_metrics()
        elif route == ("openapi.json",):
            if method == "GET":
                return state.handle_openapi()
        elif route == ("campaigns",):
            if method == "GET":
                return state.handle_list()
            if method == "POST":
                return state.handle_submit(body)
        elif len(route) == 2 and route[0] == "campaigns":
            if method == "GET":
                return state.handle_status(route[1])
        elif len(route) == 3 and route[0] == "campaigns" and route[2] == "cells":
            if method == "GET":
                return state.handle_cells(route[1], query)
        elif len(route) == 3 and route[0] == "campaigns" and route[2] == "report":
            if method == "GET":
                return state.handle_report(route[1], query)
        elif len(route) == 3 and route[0] == "campaigns" and route[2] == "events":
            if method == "GET":
                return state.handle_events(route[1], query)
        else:
            raise ServiceError(f"no such endpoint {path!r}", status=404)
        raise ServiceError(f"method {method} not allowed on {path!r}", status=405)

    def application(environ, start_response):
        """The WSGI callable: dispatch, serialise, map errors to JSON.

        Streaming payloads (the SSE generator) are passed through without a
        Content-Length and observed into the request metrics when the
        stream closes; everything else is a buffered single-chunk body.
        """
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO", "/") or "/"
        query = _first_values(environ.get("QUERY_STRING", ""))
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        body = environ["wsgi.input"].read(length) if length > 0 else b""
        begin = time.perf_counter()
        try:
            status, payload, content_type = dispatch(method, path, query, body)
        except ServiceError as error:
            status = error.status
            payload = ErrorResponse(error=str(error)).as_dict()
            content_type = "application/json"
        except ReproError as error:
            # Spec/validation failures carry the registry's message verbatim.
            status = 422
            payload = ErrorResponse(error=str(error)).as_dict()
            content_type = "application/json"
        except Exception as error:  # pragma: no cover - defensive
            status = 500
            payload = ErrorResponse(
                error=f"internal error: {type(error).__name__}: {error}"
            ).as_dict()
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        route = route_template(path)
        if isinstance(payload, (dict, list)):
            raw = json.dumps(payload).encode("utf-8")
        elif isinstance(payload, str):
            raw = payload.encode("utf-8")
        else:
            # Streaming response: no Content-Length, latency covers the
            # whole stream lifetime (close() fires on client disconnect too).
            start_response(
                f"{status} {reason}",
                [("Content-Type", content_type), ("Cache-Control", "no-cache")],
            )
            final_status = status
            return _ObservedStream(
                payload,
                lambda: state.observe_request(
                    method, route, final_status, time.perf_counter() - begin
                ),
            )
        state.observe_request(method, route, status, time.perf_counter() - begin)
        start_response(
            f"{status} {reason}",
            [
                ("Content-Type", content_type),
                ("Content-Length", str(len(raw))),
            ],
        )
        return [raw]

    return application


def serve(config: ServiceConfig) -> int:
    """Serve the WSGI app on a threading server until Ctrl-C; returns an exit code."""
    state = ServiceState(config)
    state.start()
    try:
        server = make_server(state, config.host, config.port)
        host, port = server.server_address[:2]
        print(f"repro campaign service listening on http://{host}:{port}")
        print(f"  root: {Path(config.root).resolve()}  workers: {config.workers}")
        try:
            server.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            server.server_close()
    finally:
        state.stop()
    return 0


def make_server(state: ServiceState, host: str, port: int):
    """A threading WSGI server over *state* (also used by the live tests)."""
    from socketserver import ThreadingMixIn
    from wsgiref.simple_server import WSGIRequestHandler, WSGIServer

    class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
        """One thread per request so polls never block a long submit."""

        daemon_threads = True

    class QuietHandler(WSGIRequestHandler):
        """Request handler with per-request access logging silenced."""

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            """Drop access-log lines (tests and CI keep stdout clean)."""

    from wsgiref.simple_server import make_server as wsgiref_make_server

    return wsgiref_make_server(
        host, port, create_wsgi_app(state),
        server_class=ThreadingWSGIServer, handler_class=QuietHandler,
    )
