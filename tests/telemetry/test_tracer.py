"""Tracer unit tests: record shape, contexts, counters, null fast path."""

from __future__ import annotations

import json
import threading

from repro.telemetry import Tracer, shared_tracer
from repro.telemetry.tracer import TRACE_FILE_PREFIX


def read_spans(directory):
    spans = []
    for path in sorted(directory.glob(f"{TRACE_FILE_PREFIX}*.jsonl")):
        for line in path.read_text().splitlines():
            spans.append(json.loads(line))
    return spans


def test_span_context_manager_emits_one_record(tmp_path):
    tracer = Tracer(tmp_path)
    with tracer.span("phase", heuristic="IE") as span:
        span.add("candidates", 3)
        span.add("candidates", 2)
    tracer.close()
    (record,) = read_spans(tmp_path)
    assert record["name"] == "phase"
    assert record["heuristic"] == "IE"
    assert record["counters"] == {"candidates": 5}
    assert record["dur_us"] >= 0
    assert record["pid"] > 0


def test_record_from_precaptured_start(tmp_path):
    import time

    tracer = Tracer(tmp_path)
    begin = time.perf_counter_ns()
    tracer.record("fast", begin, advance=7)
    tracer.close()
    (record,) = read_spans(tmp_path)
    assert record["name"] == "fast"
    assert record["advance"] == 7


def test_event_is_zero_duration(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.event("job.enqueue", job="abc")
    tracer.close()
    (record,) = read_spans(tmp_path)
    assert record["job"] == "abc"
    assert record["dur_us"] <= 1000  # emitted immediately


def test_context_attrs_merge_and_nest(tmp_path):
    tracer = Tracer(tmp_path)
    with tracer.context(cell="m5", trial=1):
        tracer.event("outer")
        with tracer.context(trial=2, heuristic="IE"):
            tracer.event("inner")
    tracer.event("outside")
    tracer.close()
    outer, inner, outside = read_spans(tmp_path)
    assert outer["cell"] == "m5" and outer["trial"] == 1
    assert inner["cell"] == "m5" and inner["trial"] == 2
    assert inner["heuristic"] == "IE"
    assert "cell" not in outside


def test_span_attrs_shadow_context(tmp_path):
    tracer = Tracer(tmp_path)
    with tracer.context(heuristic="outer"):
        tracer.event("e", heuristic="inner")
    tracer.close()
    (record,) = read_spans(tmp_path)
    assert record["heuristic"] == "inner"


def test_run_id_stamped_on_every_record(tmp_path):
    tracer = Tracer(tmp_path, run_id="r42")
    tracer.event("a")
    tracer.event("b")
    tracer.close()
    assert all(record["run"] == "r42" for record in read_spans(tmp_path))


def test_span_emitted_even_on_exception(tmp_path):
    tracer = Tracer(tmp_path)
    try:
        with tracer.span("boom"):
            raise ValueError("x")
    except ValueError:
        pass
    tracer.close()
    assert read_spans(tmp_path)[0]["name"] == "boom"


def test_concurrent_threads_produce_valid_lines(tmp_path):
    tracer = Tracer(tmp_path)

    def work(index):
        with tracer.context(thread=index):
            for _ in range(50):
                tracer.event("tick")

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    tracer.close()
    spans = read_spans(tmp_path)  # json.loads raises on any torn line
    assert len(spans) == 200


def test_accumulate_merges_occurrences_into_one_record(tmp_path):
    import time

    tracer = Tracer(tmp_path)
    for advance in (3, 4):
        begin = time.perf_counter_ns()
        tracer.accumulate(
            "engine.comm_phase", begin, counters={"advance": advance}, heuristic="IE"
        )
    tracer.flush_accumulated()
    tracer.close()
    (record,) = read_spans(tmp_path)
    assert record["name"] == "engine.comm_phase"
    assert record["heuristic"] == "IE"
    assert record["counters"]["calls"] == 2
    assert record["counters"]["advance"] == 7
    assert record["dur_us"] >= 0


def test_accumulate_splits_on_attrs_and_flushes_on_close(tmp_path):
    import time

    tracer = Tracer(tmp_path)
    begin = time.perf_counter_ns()
    tracer.accumulate("allocate", begin, criterion="E")
    tracer.accumulate("allocate", begin, criterion="Y")
    tracer.close()  # close() drains the calling thread's pending buffer
    spans = read_spans(tmp_path)
    assert {span["criterion"] for span in spans} == {"E", "Y"}
    assert all(span["counters"]["calls"] == 1 for span in spans)


def test_flush_accumulated_applies_context_at_flush_time(tmp_path):
    import time

    tracer = Tracer(tmp_path)
    with tracer.context(cell="m5"):
        tracer.accumulate("phase", time.perf_counter_ns())
        tracer.flush_accumulated()
    tracer.close()
    (record,) = read_spans(tmp_path)
    assert record["cell"] == "m5"


def test_shared_tracer_is_one_instance_per_directory(tmp_path):
    first = shared_tracer(tmp_path / "a")
    second = shared_tracer(tmp_path / "a")
    other = shared_tracer(tmp_path / "b")
    assert first is second
    assert other is not first


def test_close_then_reuse_reopens(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.event("one")
    tracer.close()
    tracer.event("two")
    tracer.close()
    assert [record["name"] for record in read_spans(tmp_path)] == ["one", "two"]
