"""Tests for the per-slot metrics collector (repro.metrics.collector).

The central guarantee: attaching a collector never changes a simulation's
result (all hooks are read-only), and a disabled collector costs nothing —
the golden-seed runs must stay bit-identical either way.
"""

import json

import pytest

from repro.analysis.cache import AnalysisContext
from repro.application import Application
from repro.exceptions import SimulationError
from repro.metrics import SERIES_NAMES, MetricsCollector
from repro.platform import PlatformSpec, paper_platform
from repro.scheduling import create_scheduler
from repro.simulation import MultiHeuristicDriver, SampledTrace, SimulationEngine

from tests.simulation.test_golden_replay import GOLDEN_CASES, RESULT_FIELDS, run_case

EXACT_SERIES = (
    "pool_up",
    "pool_down",
    "active_workers",
    "enrollment_churn",
    "iterations_completed",
)


def make_engine(
    *,
    heuristic="IE",
    seed=11,
    max_slots=20_000,
    iterations=5,
    metrics=None,
    record_events=False,
    trace=None,
):
    platform = paper_platform(
        PlatformSpec(num_processors=10, ncom=5, wmin=1), num_tasks=4, seed=seed
    )
    application = Application(tasks_per_iteration=4, iterations=iterations)
    return SimulationEngine(
        platform,
        application,
        create_scheduler(heuristic),
        seed=seed,
        max_slots=max_slots,
        analysis=AnalysisContext(platform),
        metrics=metrics,
        record_events=record_events,
        trace=trace,
    )


def golden_id(case):
    return f"{case['kind']}-{case['heuristic']}-s{case['seed']}"


class TestBitIdentity:
    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=golden_id)
    def test_collector_leaves_golden_results_unchanged(self, case):
        """Scalar results with a live collector match the golden seeds exactly."""
        collector = MetricsCollector()
        result = run_case(case, metrics=collector)
        for field in RESULT_FIELDS:
            assert getattr(result, field) == case[field], field
        metrics = collector.result()
        assert metrics.num_samples == len(metrics.series["pool_up"])
        assert set(metrics.series) == set(SERIES_NAMES)

    def test_collector_on_equals_collector_off(self):
        with_collector = make_engine(metrics=MetricsCollector()).run()
        without = make_engine().run()
        for field in RESULT_FIELDS:
            assert getattr(with_collector, field) == getattr(without, field), field


class TestSeriesSemantics:
    def test_num_samples_law_and_slots(self):
        collector = MetricsCollector(stride=64)
        engine = make_engine(metrics=collector)
        result = engine.run()
        metrics = collector.result()
        end = result.makespan if result.success else engine.max_slots
        assert metrics.end_slot == end
        assert metrics.num_samples == (end - 1) // 64 + 1
        for name in SERIES_NAMES:
            assert len(metrics.series[name]) == metrics.num_samples
        assert metrics.slots() == [i * 64 for i in range(metrics.num_samples)]

    def test_stride_one_matches_recorded_activity(self):
        """With every slot visited (record_events disables fast-forward),
        a stride-1 collector reproduces the pool states of the trace the run
        read exactly."""
        collector = MetricsCollector(stride=1)
        platform = paper_platform(
            PlatformSpec(num_processors=10, ncom=5, wmin=1), num_tasks=4, seed=11
        )
        trace = SampledTrace(platform, 11, 20_000)
        engine = make_engine(metrics=collector, record_events=True, trace=trace)
        result = engine.run()
        assert result.success
        metrics = collector.result()
        states = trace.block(0, result.makespan)
        assert len(metrics.series["pool_up"]) == result.makespan
        expected_up = (states == 0).sum(axis=0)
        expected_down = (states == 2).sum(axis=0)
        assert metrics.series["pool_up"] == expected_up.tolist()
        assert metrics.series["pool_down"] == expected_down.tolist()
        assert metrics.series["iterations_completed"][-1] == result.completed_iterations
        assert metrics.series["work_completed"][-1] == result.computation_slots

    def test_monotone_series(self):
        collector = MetricsCollector(stride=16)
        make_engine(metrics=collector).run()
        metrics = collector.result()
        for name in ("enrollment_churn", "iterations_completed", "work_completed"):
            values = metrics.series[name]
            assert all(b >= a for a, b in zip(values, values[1:])), name

    def test_exact_series_match_per_slot_path(self):
        """The five exact series must agree between the fast paths and the
        slot-by-slot path (``record_events`` disables every jump); the two
        interpolated ones may differ inside fast-forwarded spans."""
        fast, per_slot = MetricsCollector(stride=32), MetricsCollector(stride=32)
        make_engine(metrics=fast).run()
        make_engine(metrics=per_slot, record_events=True).run()
        fast, per_slot = fast.result(), per_slot.result()
        assert fast.end_slot == per_slot.end_slot
        for name in EXACT_SERIES:
            assert fast.series[name] == per_slot.series[name], name


class TestLifecycle:
    def test_result_before_run_raises(self):
        with pytest.raises(SimulationError):
            MetricsCollector().result()

    def test_invalid_stride_rejected(self):
        with pytest.raises(SimulationError):
            MetricsCollector(stride=0)

    def test_collector_is_reusable_across_runs(self):
        collector = MetricsCollector(stride=32)
        make_engine(metrics=collector, seed=3).run()
        first = collector.result()
        make_engine(metrics=collector, seed=4).run()
        second = collector.result()
        assert first is not second
        assert first.series["pool_up"] != second.series["pool_up"]

    def test_as_dict_rounds_every_series(self):
        collector = MetricsCollector(stride=32)
        make_engine(metrics=collector).run()
        metrics = collector.result()
        payload = json.loads(json.dumps(metrics.as_dict()))
        assert payload["stride"] == metrics.stride
        assert payload["end_slot"] == metrics.end_slot
        assert payload["scheduler"] == metrics.scheduler
        assert payload["series"] == {
            name: [round(float(value), 3) for value in values]
            for name, values in metrics.series.items()
        }


class TestMultiRun:
    def test_per_engine_collectors(self):
        platform = paper_platform(
            PlatformSpec(num_processors=10, ncom=5, wmin=1), num_tasks=4, seed=11
        )
        application = Application(tasks_per_iteration=4, iterations=5)
        schedulers = [create_scheduler(name) for name in ("IE", "RANDOM")]
        collectors = [MetricsCollector(stride=32) for _ in schedulers]
        driver = MultiHeuristicDriver(
            platform,
            application,
            schedulers,
            seed=11,
            max_slots=20_000,
            analysis=AnalysisContext(platform),
            metrics=collectors,
        )
        results = driver.run()
        for result, collector in zip(results, collectors):
            metrics = collector.result()
            end = result.makespan if result.success else 20_000
            assert metrics.end_slot == end

    def test_collector_count_mismatch_rejected(self):
        platform = paper_platform(
            PlatformSpec(num_processors=10, ncom=5, wmin=1), num_tasks=4, seed=11
        )
        application = Application(tasks_per_iteration=4, iterations=5)
        with pytest.raises(SimulationError):
            MultiHeuristicDriver(
                platform,
                application,
                [create_scheduler("IE"), create_scheduler("RANDOM")],
                seed=11,
                max_slots=20_000,
                metrics=[MetricsCollector()],
            )
