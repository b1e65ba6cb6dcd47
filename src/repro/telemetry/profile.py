"""Aggregate JSONL span traces into per-phase/per-heuristic profiles.

``repro profile STORE|TRACE`` loads the span records written by
:class:`~repro.telemetry.tracer.Tracer` (a single ``spans-*.jsonl`` file,
a trace directory, or a campaign store containing a ``telemetry/``
subdirectory) and renders where wall-clock time went: one row per
(span name, heuristic/criterion) pair with call counts, total time and
share of profiled time, plus the allocator/analysis memo hit/miss
counters — the direct evidence for the "informed-heuristic cells are
allocator-bound" claim in the roadmap.

Container spans (``engine.run``, ``job.run``) wrap the instrumented
phases, so they are reported but excluded from the share denominator;
shares are computed over leaf spans only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.exceptions import ReproError
from repro.telemetry.tracer import TRACE_FILE_PREFIX
from repro.utils.tables import format_table

__all__ = [
    "ProfileRow",
    "ProfileReport",
    "load_spans",
    "aggregate_spans",
    "profile_trace",
    "format_profile",
    "render_profile_html",
]

#: Spans that wrap other instrumented spans; excluded from the share
#: denominator so phase shares do not double-count.
CONTAINER_SPANS = frozenset({"engine.run", "job.run", "campaign.run"})


@dataclass
class ProfileRow:
    """Aggregated statistics for one (span name, group) pair."""

    name: str
    group: str
    count: int = 0
    total_us: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        """Total time in milliseconds."""
        return self.total_us / 1000.0

    @property
    def mean_us(self) -> float:
        """Mean span duration in microseconds."""
        return self.total_us / self.count if self.count else 0.0


@dataclass
class ProfileReport:
    """A full profile: per-phase rows plus memo-counter totals."""

    source: str
    rows: List[ProfileRow]
    total_spans: int
    files: int
    wall_seconds: float
    counters: Dict[str, float]

    @property
    def leaf_total_us(self) -> float:
        """Total microseconds across non-container spans."""
        return sum(row.total_us for row in self.rows if row.name not in CONTAINER_SPANS)

    def share(self, row: ProfileRow) -> Optional[float]:
        """Fraction of profiled (leaf) time spent in *row*, or ``None``."""
        if row.name in CONTAINER_SPANS:
            return None
        total = self.leaf_total_us
        return row.total_us / total if total else 0.0


def _span_files(path: Union[str, Path]) -> List[Path]:
    target = Path(path)
    if target.is_file():
        return [target]
    if target.is_dir():
        # A trace directory holds spans-*.jsonl directly; a campaign store
        # holds them under telemetry/ (where `repro campaign --trace` and
        # the service worker write).
        files = sorted(target.glob(f"{TRACE_FILE_PREFIX}*.jsonl"))
        if not files:
            files = sorted((target / "telemetry").glob(f"{TRACE_FILE_PREFIX}*.jsonl"))
        if files:
            return files
        raise ReproError(
            f"no {TRACE_FILE_PREFIX}*.jsonl span files under {target} "
            "(run the campaign with --trace, or point at a trace directory)"
        )
    raise ReproError(f"trace path does not exist: {target}")


def load_spans(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load span records from a file, trace directory, or campaign store."""
    spans: List[Dict[str, Any]] = []
    for file in _span_files(path):
        with open(file, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    spans.append(json.loads(line))
    return spans


def _group_label(span: Dict[str, Any]) -> str:
    heuristic = span.get("heuristic")
    if heuristic:
        return str(heuristic)
    criterion = span.get("criterion")
    if criterion:
        return f"criterion={criterion}"
    return "-"


def aggregate_spans(
    spans: Iterable[Dict[str, Any]], *, source: str = "", files: int = 1
) -> ProfileReport:
    """Aggregate raw span records into a :class:`ProfileReport`."""
    rows: Dict[Tuple[str, str], ProfileRow] = {}
    counters: Dict[str, float] = {}
    total = 0
    first_ts: Optional[float] = None
    last_ts: Optional[float] = None
    for span in spans:
        name = str(span.get("name", "?"))
        group = _group_label(span)
        row = rows.get((name, group))
        if row is None:
            row = rows[(name, group)] = ProfileRow(name=name, group=group)
        span_counters = span.get("counters")
        # Aggregated records (Tracer.accumulate) fold many occurrences into
        # one line and carry the occurrence count as a ``calls`` counter;
        # weight the row count by it so per-call means stay true.
        calls = 1
        if span_counters:
            calls = int(span_counters.get("calls", 1))
        row.count += calls
        row.total_us += float(span.get("dur_us", 0.0))
        if span_counters:
            for key, value in span_counters.items():
                if key == "calls":
                    continue
                row.counters[key] = row.counters.get(key, 0) + value
                counters[key] = counters.get(key, 0) + value
        ts = span.get("ts")
        if ts is not None:
            ts = float(ts)
            first_ts = ts if first_ts is None else min(first_ts, ts)
            last_ts = ts if last_ts is None else max(last_ts, ts)
        total += 1
    ordered = sorted(rows.values(), key=lambda r: (-r.total_us, r.name, r.group))
    wall = (last_ts - first_ts) if first_ts is not None and last_ts is not None else 0.0
    return ProfileReport(
        source=source,
        rows=ordered,
        total_spans=total,
        files=files,
        wall_seconds=wall,
        counters=counters,
    )


def profile_trace(path: Union[str, Path]) -> ProfileReport:
    """Load spans from *path* and aggregate them."""
    files = _span_files(path)
    spans: List[Dict[str, Any]] = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    spans.append(json.loads(line))
    return aggregate_spans(spans, source=str(path), files=len(files))


_MEMO_ROWS = (
    ("candidates", "allocator candidates scored"),
    ("path_hits", "greedy-path tree hits"),
    ("steps", "allocator greedy steps"),
    ("repeats", "allocator repeated-input answers"),
    ("computation_hits", "computation memo hits"),
    ("computation_misses", "computation memo misses"),
    ("single_time_misses", "single-time memo misses"),
    ("survival_misses", "survival memo misses"),
    ("requests", "analysis batch requests"),
    ("prefetched", "analysis memo prefetches"),
)


def _phase_table(report: ProfileReport) -> str:
    rows: List[List[object]] = []
    for row in report.rows:
        share = report.share(row)
        rows.append(
            [
                row.name,
                row.group,
                row.count,
                f"{row.total_ms:.1f}",
                f"{row.mean_us:.1f}",
                "-" if share is None else f"{100.0 * share:.1f}%",
            ]
        )
    return format_table(
        rows,
        headers=["span", "group", "count", "total ms", "mean us", "share"],
        align_right=[False, False, True, True, True, True],
    )


def _memo_table(report: ProfileReport) -> str:
    rows: List[List[object]] = []
    hits = report.counters.get("computation_hits", 0)
    misses = report.counters.get("computation_misses", 0)
    for key, label in _MEMO_ROWS:
        if key in report.counters:
            rows.append([label, int(report.counters[key])])
    if hits or misses:
        total = hits + misses
        rate = 100.0 * hits / total if total else 0.0
        rows.append(["computation memo hit rate", f"{rate:.1f}%"])
    if not rows:
        return ""
    return format_table(rows, headers=["counter", "value"], align_right=[False, True])


def format_profile(report: ProfileReport) -> str:
    """Render the profile as aligned text tables."""
    lines = [
        f"Trace: {report.source}",
        f"Spans: {report.total_spans} across {report.files} file(s); "
        f"span window {report.wall_seconds:.2f}s; "
        f"profiled (leaf) time {report.leaf_total_us / 1e6:.3f}s",
        "",
        _phase_table(report) if report.rows else "(no spans recorded)",
    ]
    memo = _memo_table(report)
    if memo:
        lines.extend(["", "Allocator / analysis memo counters:", memo])
    return "\n".join(lines) + "\n"


def render_profile_html(report: ProfileReport) -> str:
    """Render the profile as a self-contained HTML document.

    Reuses the dashboard CSS from :mod:`repro.metrics.html` so the page
    matches the campaign report artifact it ships next to.
    """
    from repro.metrics.html import _CSS, _esc

    def html_table(headers: List[str], body_rows: List[List[object]]) -> str:
        head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
        body = "\n".join(
            "<tr>" + "".join(f"<td>{_esc(cell)}</td>" for cell in row) + "</tr>"
            for row in body_rows
        )
        return (
            '<table border="1" cellspacing="0" cellpadding="4">'
            f"<thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
        )

    phase_rows: List[List[object]] = []
    for row in report.rows:
        share = report.share(row)
        phase_rows.append(
            [
                row.name,
                row.group,
                row.count,
                f"{row.total_ms:.1f}",
                f"{row.mean_us:.1f}",
                "-" if share is None else f"{100.0 * share:.1f}%",
            ]
        )
    memo_rows: List[List[object]] = []
    for key, label in _MEMO_ROWS:
        if key in report.counters:
            memo_rows.append([label, int(report.counters[key])])
    hits = report.counters.get("computation_hits", 0)
    misses = report.counters.get("computation_misses", 0)
    if hits or misses:
        total = hits + misses
        memo_rows.append(
            ["computation memo hit rate", f"{100.0 * hits / max(total, 1):.1f}%"]
        )

    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>repro telemetry profile</title>",
        f"<style>{_CSS}</style></head>\n<body>",
        "<h1>Telemetry profile</h1>",
        f'<p class="meta">Trace: {_esc(report.source)} &middot; '
        f"{report.total_spans} spans in {report.files} file(s) &middot; "
        f"span window {report.wall_seconds:.2f}s &middot; "
        f"profiled time {report.leaf_total_us / 1e6:.3f}s</p>",
        "<h2>Per-phase breakdown</h2>",
        html_table(
            ["span", "group", "count", "total ms", "mean us", "share"], phase_rows
        )
        if phase_rows
        else '<p class="note">no spans recorded</p>',
    ]
    if memo_rows:
        parts.append("<h2>Allocator / analysis memo counters</h2>")
        parts.append(html_table(["counter", "value"], memo_rows))
    parts.append("</body></html>\n")
    return "\n".join(parts)
