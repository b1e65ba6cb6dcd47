"""Tracing across the engine/allocator/runner stack.

The load-bearing guarantees: tracing *off* is the exact pre-telemetry code
path (bit-identical results), and tracing *on* produces engine-phase spans
with heuristic attribution plus the allocator/analysis memo counters that
back the roadmap's "informed cells are allocator-bound" claim.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import ExperimentScenario, ScenarioParameters
from repro.experiments.runner import run_campaign_spec, run_instance
from repro.experiments.spec import CampaignSpec
from repro.telemetry import Tracer, profile_trace
from repro.telemetry.tracer import TRACE_FILE_PREFIX

pytestmark = pytest.mark.slow

#: Run length and cap of every instance below.
RUN = dict(iterations=2, makespan_cap=20_000)


def scenario():
    return ExperimentScenario(
        ScenarioParameters(m=4, ncom=5, wmin=1, num_processors=8), 0, campaign="test"
    )


def read_spans(directory):
    spans = []
    for path in sorted(directory.glob(f"{TRACE_FILE_PREFIX}*.jsonl")):
        for line in path.read_text().splitlines():
            spans.append(json.loads(line))
    return spans


def normalized(result):
    payload = result.as_dict()
    payload["wall_time_seconds"] = 0.0
    return payload


class TestBitIdentity:
    @pytest.mark.parametrize("heuristic", ["IE", "RANDOM"])
    def test_traced_run_matches_untraced(self, tmp_path, heuristic):
        plain = run_instance(scenario(), heuristic, trial=0, **RUN)
        tracer = Tracer(tmp_path)
        traced = run_instance(
            scenario(), heuristic, trial=0, **RUN, tracer=tracer
        )
        tracer.close()
        assert normalized(plain) == normalized(traced)
        assert read_spans(tmp_path)  # and the trace is not empty


class TestSpanContent:
    def test_engine_spans_carry_heuristic_and_run_summary(self, tmp_path):
        tracer = Tracer(tmp_path)
        result = run_instance(scenario(), "IE", trial=0, **RUN, tracer=tracer)
        tracer.close()
        spans = read_spans(tmp_path)
        names = {span["name"] for span in spans}
        assert "engine.run" in names
        assert "engine.block_fetch" in names
        assert "allocate" in names
        (run_span,) = [span for span in spans if span["name"] == "engine.run"]
        assert run_span["heuristic"] == "IE"
        assert run_span["success"] == result.success
        assert run_span["slots"] == (result.makespan if result.success else RUN["makespan_cap"])
        for span in spans:
            if span["name"].startswith("engine."):
                assert span["heuristic"] == "IE"

    def test_allocate_spans_count_memo_traffic(self, tmp_path):
        tracer = Tracer(tmp_path)
        run_instance(scenario(), "IE", trial=0, **RUN, tracer=tracer)
        tracer.close()
        allocates = [
            span for span in read_spans(tmp_path) if span["name"] == "allocate"
        ]
        assert allocates
        totals = {}
        for span in allocates:
            assert span["criterion"] == "E"
            for key, value in span.get("counters", {}).items():
                totals[key] = totals.get(key, 0) + value
        # Every candidate the greedy-path tree cannot answer probes the
        # computation memo exactly once.
        assert totals["candidates"] > 0
        assert (
            totals["path_hits"] + totals["computation_hits"] + totals["computation_misses"]
            == totals["candidates"]
        )
        assert totals["steps"] > 0

    def test_context_stamps_cell_and_trial(self, tmp_path):
        tracer = Tracer(tmp_path)
        # run_instance pushes its own cell/trial/heuristic context; an outer
        # key it does not set flows through to every span.
        with tracer.context(shard="2/4"):
            run_instance(scenario(), "IE", trial=3, **RUN, tracer=tracer)
        tracer.close()
        spans = read_spans(tmp_path)
        assert spans and all(span["shard"] == "2/4" for span in spans)
        assert all(span["cell"] == scenario().label() for span in spans)
        assert all(span["trial"] == 3 for span in spans)


class TestCampaignTrace:
    def spec(self):
        return CampaignSpec.from_dict(
            {
                "name": "trace-test",
                "m_values": [4],
                "ncom_values": [5],
                "wmin_values": [1],
                "num_processors_values": [8],
                "heuristics": ["IE", "RANDOM"],
                "scenarios_per_cell": 1,
                "trials_per_scenario": 1,
                "iterations": 2,
                "makespan_cap": 20_000,
            }
        )

    def test_trace_dir_keeps_results_identical_and_profiles(self, tmp_path):
        plain = run_campaign_spec(self.spec())
        trace_dir = tmp_path / "telemetry"
        traced = run_campaign_spec(self.spec(), trace_dir=str(trace_dir))
        assert [normalized(r) for r in plain] == [normalized(r) for r in traced]

        report = profile_trace(trace_dir)
        groups = {(row.name, row.group) for row in report.rows}
        assert ("engine.run", "IE") in groups
        assert ("engine.run", "RANDOM") in groups
        assert report.counters.get("candidates", 0) > 0
        # The driver-level context stamps every engine span with its cell.
        spans = read_spans(trace_dir)
        assert all("cell" in span for span in spans if span["name"].startswith("engine."))
