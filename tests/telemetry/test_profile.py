"""Profile aggregation: loading, grouping, shares, memo counters, rendering."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ReproError
from repro.telemetry import (
    Tracer,
    aggregate_spans,
    format_profile,
    profile_trace,
    render_profile_html,
)


def make_spans():
    return [
        {"name": "engine.run", "ts": 10.0, "dur_us": 1000.0, "heuristic": "IE"},
        {"name": "allocate", "ts": 10.1, "dur_us": 600.0, "criterion": "E",
         "counters": {"computation_hits": 8, "computation_misses": 2}},
        {"name": "allocate", "ts": 10.2, "dur_us": 200.0, "criterion": "E",
         "counters": {"computation_hits": 2, "computation_misses": 3}},
        {"name": "engine.fast_forward", "ts": 10.5, "dur_us": 200.0, "heuristic": "IE"},
    ]


def test_aggregate_groups_and_sorts_by_total_time():
    report = aggregate_spans(make_spans(), source="test", files=1)
    assert report.total_spans == 4
    assert [(row.name, row.group, row.count) for row in report.rows] == [
        ("engine.run", "IE", 1),
        ("allocate", "criterion=E", 2),
        ("engine.fast_forward", "IE", 1),
    ]
    assert report.wall_seconds == pytest.approx(0.5)


def test_container_spans_excluded_from_share():
    report = aggregate_spans(make_spans())
    by_name = {row.name: row for row in report.rows}
    assert report.share(by_name["engine.run"]) is None
    assert report.leaf_total_us == pytest.approx(1000.0)
    assert report.share(by_name["allocate"]) == pytest.approx(0.8)
    assert report.share(by_name["engine.fast_forward"]) == pytest.approx(0.2)


def test_counters_summed_globally():
    report = aggregate_spans(make_spans())
    assert report.counters == {"computation_hits": 10, "computation_misses": 5}


def test_profile_trace_accepts_file_dir_and_store(tmp_path):
    trace_dir = tmp_path / "store" / "telemetry"
    tracer = Tracer(trace_dir)
    tracer.event("a")
    tracer.close()
    (span_file,) = trace_dir.glob("spans-*.jsonl")
    for target in (span_file, trace_dir, tmp_path / "store"):
        report = profile_trace(target)
        assert report.total_spans == 1


def test_profile_trace_skips_blank_lines(tmp_path):
    path = tmp_path / "spans-1.jsonl"
    path.write_text(json.dumps({"name": "a", "dur_us": 1.0}) + "\n\n")
    assert profile_trace(path).total_spans == 1


def test_missing_trace_path_raises(tmp_path):
    with pytest.raises(ReproError, match="does not exist"):
        profile_trace(tmp_path / "nope")
    (tmp_path / "empty").mkdir()
    with pytest.raises(ReproError, match="no spans-"):
        profile_trace(tmp_path / "empty")


def test_format_profile_text_includes_memo_and_shares():
    text = format_profile(aggregate_spans(make_spans(), source="src"))
    assert "Trace: src" in text
    assert "allocate" in text and "criterion=E" in text
    assert "80.0%" in text
    assert "computation memo hit rate" in text
    assert "66.7%" in text  # 10 hits / 15 probes


def test_render_profile_html_is_self_contained():
    html = render_profile_html(aggregate_spans(make_spans(), source="s<rc"))
    assert html.startswith("<!DOCTYPE html>")
    assert "s&lt;rc" in html  # source is escaped
    assert "Per-phase breakdown" in html
    assert "memo counters" in html


def test_empty_report_renders():
    report = aggregate_spans([], source="empty")
    assert "(no spans recorded)" in format_profile(report)
    assert "no spans recorded" in render_profile_html(report)
