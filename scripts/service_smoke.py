#!/usr/bin/env python
"""End-to-end service smoke: serve -> submit -> poll -> fetch report.

Starts ``repro serve`` as a real subprocess on a free port, submits the
two-cell walkthrough spec (``examples/service_walkthrough.toml``), polls
the campaign to completion over HTTP, fetches the HTML dashboard and
writes it to ``--output``.  Uses httpx when installed, plain urllib
otherwise, so the script also runs in a dependency-free checkout (as in
the CI service lane).

Usage::

    PYTHONPATH=src python scripts/service_smoke.py --output service_report.html
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

try:
    import httpx
except ImportError:  # pragma: no cover - exercised in minimal checkouts
    httpx = None


def request(method: str, url: str, payload: dict | None = None):
    """Return ``(status, body_bytes)`` using httpx or urllib."""
    if httpx is not None:
        response = httpx.request(method, url, json=payload, timeout=30.0)
        return response.status_code, response.content
    import urllib.request

    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    req = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=30.0) as response:
        return response.status, response.read()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="service_report.html")
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args(argv)

    port = free_port()
    base = f"http://127.0.0.1:{port}"
    root = tempfile.mkdtemp(prefix="repro-service-smoke-")
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", str(REPO / "src"))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", root,
         "--port", str(port), "--workers", "2"],
        env=env, cwd=REPO,
    )
    try:
        deadline = time.monotonic() + args.timeout
        while True:
            try:
                status, _ = request("GET", f"{base}/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise SystemExit("service did not come up in time")
            time.sleep(0.2)

        status, body = request("GET", f"{base}/healthz")
        health = json.loads(body)
        assert health["status"] in ("ok", "degraded"), health
        for field in ("workers", "jobs", "queue_depth", "stale_jobs"):
            assert field in health, f"healthz missing {field!r}: {health}"
        assert health["stale_jobs"] == 0, health

        spec_toml = (REPO / "examples" / "service_walkthrough.toml").read_text()
        status, body = request("POST", f"{base}/campaigns", {"spec_toml": spec_toml})
        assert status == 201, (status, body)
        accepted = json.loads(body)
        print(f"submitted {accepted['id'][:12]} ({accepted['total_cells']} cells)")

        while True:
            status, body = request("GET", base + accepted["location"])
            assert status == 200, (status, body)
            campaign = json.loads(body)
            if campaign["status"] == "completed":
                break
            if campaign["status"] == "failed":
                raise SystemExit(f"campaign failed: {campaign['error']}")
            if time.monotonic() > deadline:
                raise SystemExit(f"campaign stuck at {campaign['status']}")
            time.sleep(0.5)
        assert campaign["completed_cells"] == campaign["total_cells"]
        print(f"completed {campaign['completed_cells']}/{campaign['total_cells']} cells")

        # A duplicate submit must attach to the finished run, not start a new one.
        status, body = request("POST", f"{base}/campaigns", {"spec_toml": spec_toml})
        assert status == 200 and json.loads(body)["deduplicated"], (status, body)

        # Prometheus scrape: exposition format with the request counters the
        # polling loop above just generated.
        status, body = request("GET", f"{base}/metrics")
        assert status == 200, status
        metrics = body.decode()
        for line in (
            "# TYPE repro_http_requests_total counter",
            "# TYPE repro_http_request_duration_seconds histogram",
            "# TYPE repro_job_queue_depth gauge",
            'repro_jobs{status="completed"}',
            'route="/campaigns/{id}"',
        ):
            assert line in metrics, f"metrics missing {line!r}"
        print(f"scraped /metrics ({len(metrics.splitlines())} lines)")

        # A short SSE read: a completed campaign streams snapshot -> end.
        status, body = request(
            "GET", f"{base}{accepted['location']}/events?limit=1&poll=0.05"
        )
        assert status == 200, status
        stream = body.decode()
        assert stream.startswith("retry: 2000"), stream[:50]
        assert "event: snapshot" in stream and "event: end" in stream, stream
        print("streamed SSE snapshot + end for the completed campaign")

        status, body = request("GET", base + accepted["report"])
        assert status == 200 and body.startswith(b"<!DOCTYPE html>"), status
        Path(args.output).write_bytes(body)
        print(f"wrote {args.output} ({len(body)} bytes)")
        return 0
    finally:
        server.terminate()
        server.wait(timeout=10)


if __name__ == "__main__":
    raise SystemExit(main())
