"""Micro-benchmarks of the discrete-event simulation engine.

Measures the per-run cost of representative single instances (passive,
proactive and RANDOM schedulers on a paper-style platform) — the building
blocks whose wall-clock cost determines how much of the paper's 6,000-instance
campaign can be replayed in a given time budget.

Besides the pytest-benchmark cases, this module measures raw engine
throughput (slots/second on a 20-worker, 100,000-slot capped run) and writes
the numbers to ``benchmarks/results/BENCH_simulator.json`` so the
performance trajectory is tracked across PRs:

* ``kernel``  — one solo :class:`SimulationEngine` run (its span primitives
  are numba-compiled when available, NumPy otherwise — see
  ``machine.kernel_backend`` in the report).  RANDOM and IE run the full
  100,000 slots; the proactive Y-IE, P-IE and E-IAY, which consult the
  allocator and the analysis on every slot, run 20,000;
* ``multiheuristic`` — the one-pass :class:`MultiHeuristicDriver` over a
  full cell of contract heuristics sharing one availability realisation.
  Its ``slots_per_second`` is the *effective aggregate* throughput
  ``len(heuristics) * slots / wall``: the cell simulates that many
  heuristic-slots in one pass, which is the number to compare against a
  ``kernel`` row's slots/second (a sequential sweep pays the per-slot cost
  once per heuristic).
* ``metrics_overhead`` — the kernel driver re-measured with a live
  :class:`~repro.metrics.collector.MetricsCollector` at the default stride;
  the row records collector-on/off slots/second and ``overhead_percent``,
  which ``check_regression.py`` gates in *both* directions (an expensive
  collector is a regression, a suspiciously free one means it stopped
  sampling).
* ``telemetry_overhead`` — same shape for the span tracer
  (:class:`~repro.telemetry.tracer.Tracer` attached to the engine and the
  analysis memo): tracer-on/off slots/second and ``overhead_percent``,
  two-sided gated with the same < 5% budget.

Each report also embeds a ``machine`` fingerprint (CPU model, core count,
numpy/numba versions, active kernel backend) so the regression gate can
tell hardware changes from code regressions.

Run directly for the JSON report::

    PYTHONPATH=src python benchmarks/bench_simulator.py
"""

from __future__ import annotations

import json
import os
import platform as platform_module
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.cache import AnalysisContext
from repro.application import Application
from repro.metrics.collector import MetricsCollector
from repro.platform import PlatformSpec, paper_platform
from repro.scheduling import create_scheduler
from repro.simulation import MultiHeuristicDriver, SimulationEngine, kernel_backend

RESULTS_DIR = Path(__file__).parent / "results"

#: The acceptance workload: 20 workers, 100k slots (the run never completes,
#: so every slot is simulated and slots/sec is exactly max_slots / wall).
THROUGHPUT_WORKERS = 20
THROUGHPUT_SLOTS = 100_000

#: The ``kernel`` rows of proactive heuristics (one per passive criterion
#: family the campaign leans on), on the same platform but 20k slots.
PROACTIVE_HEURISTICS = ("Y-IE", "P-IE", "E-IAY")
PROACTIVE_SLOTS = 20_000

#: The one-pass cell: every registered passive heuristic plus the
#: contract-flagged extensions — what a campaign cell routes through the
#: multi-heuristic driver.
MULTIHEURISTIC_CELL = (
    "RANDOM",
    "FAST",
    "STICKY",
    "THRESHOLD-IE(tau=0.5)",
    "IP",
    "IE",
    "IY",
    "IAY",
)


def machine_fingerprint() -> dict:
    """Hardware/toolchain identity embedded in every report.

    ``check_regression.py`` warns (without failing) when a fresh report's
    fingerprint differs from the committed baseline's: a throughput delta on
    different hardware or a different numba/numpy stack is not evidence of a
    code regression.
    """
    cpu_model = platform_module.processor() or platform_module.machine()
    try:
        with open("/proc/cpuinfo") as handle:  # Linux: the real model string
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "cpu_model": cpu_model,
        "cpu_count": os.cpu_count(),
        "platform": platform_module.machine(),
        "python": platform_module.python_version(),
        "numpy": np.__version__,
        "numba": numba_version,
        "kernel_backend": kernel_backend(),
    }


def make_setup(wmin=1, m=5, num_processors=20, ncom=10, seed=11):
    platform = paper_platform(
        PlatformSpec(num_processors=num_processors, ncom=ncom, wmin=wmin),
        num_tasks=m,
        seed=seed,
    )
    application = Application(tasks_per_iteration=m, iterations=10)
    analysis = AnalysisContext(platform)
    return platform, application, analysis


def run_once(platform, application, analysis, heuristic, seed=5, max_slots=60_000):
    engine = SimulationEngine(
        platform,
        application,
        create_scheduler(heuristic),
        seed=seed,
        max_slots=max_slots,
        analysis=analysis,
    )
    return engine.run()


@pytest.mark.benchmark(group="simulator")
@pytest.mark.parametrize("heuristic", ["RANDOM", "IE", "Y-IE", "E-IAY"])
def test_single_instance_m5(benchmark, heuristic):
    """One m = 5 instance (easy cell of the campaign) under each heuristic class."""
    platform, application, analysis = make_setup(wmin=1, m=5)
    result = benchmark.pedantic(
        run_once, args=(platform, application, analysis, heuristic), rounds=3, iterations=1
    )
    assert result.success


@pytest.mark.benchmark(group="simulator")
@pytest.mark.parametrize("heuristic", ["IE", "Y-IE"])
def test_single_instance_m10_moderate(benchmark, heuristic):
    """One m = 10, wmin = 3 instance (moderate difficulty)."""
    platform, application, analysis = make_setup(wmin=3, m=10)
    result = benchmark.pedantic(
        run_once, args=(platform, application, analysis, heuristic), rounds=1, iterations=1
    )
    assert result.completed_iterations > 0


# ----------------------------------------------------------------------
# Raw throughput report (BENCH_simulator.json)
# ----------------------------------------------------------------------
def _measure_engine(heuristic: str, max_slots: int, repeats: int = 3) -> dict:
    """Best-of-*repeats* slots/sec of one solo engine run."""
    platform = paper_platform(
        PlatformSpec(num_processors=THROUGHPUT_WORKERS, ncom=10, wmin=2),
        num_tasks=5,
        seed=123,
    )
    analysis = AnalysisContext(platform)
    # Enough iterations that the run always hits the slot cap.
    application = Application(tasks_per_iteration=5, iterations=max_slots)
    best = float("inf")
    for _ in range(repeats):
        engine = SimulationEngine(
            platform,
            application,
            create_scheduler(heuristic),
            seed=7,
            max_slots=max_slots,
            analysis=analysis,
        )
        start = time.perf_counter()
        engine.run()
        best = min(best, time.perf_counter() - start)
    return {
        "mode": "kernel",
        "heuristic": heuristic,
        "workers": THROUGHPUT_WORKERS,
        "slots": max_slots,
        "wall_seconds": round(best, 4),
        "slots_per_second": round(max_slots / best, 1),
    }


def _median_triple(triples: list) -> dict:
    """The off/on walls of the A/B/A triple with the median on/off ratio.

    Overhead is a *difference* of two close throughputs, so it is far more
    noise-sensitive than the throughput rows: taking independent best-of
    minima lets multi-second machine drift land asymmetrically (off's best
    from a fast period, on's best from a slow one) and swing the reported
    percentage by ±10pp on a busy host.  Worse, any *monotone* slowdown
    (thermal throttling, a noisy co-tenant ramping up) biases every
    off-then-on pair positively.  Each measurement is therefore an A/B/A
    triple — off, on, off, with the off wall the mean of the two off runs —
    so linear drift cancels within the triple; the median triple is robust
    to the outliers that remain.
    """
    ordered = sorted(triples, key=lambda walls: walls[True] / walls[False])
    return ordered[(len(ordered) - 1) // 2]


def _overhead_walls(heuristic: str, max_slots: int, repeats: int, instrument) -> tuple:
    """``(off_sps, on_sps)`` of one instrument attached to the engine or not.

    *instrument(analysis)* returns the engine keyword arguments of an
    instrumented run.  Off/on runs are interleaved as A/B/A triples and
    reduced by :func:`_median_triple`, after one untimed warmup so
    cache effects never land asymmetrically in the first timed run.
    """
    platform = paper_platform(
        PlatformSpec(num_processors=THROUGHPUT_WORKERS, ncom=10, wmin=2),
        num_tasks=5,
        seed=123,
    )
    analysis = AnalysisContext(platform)
    application = Application(tasks_per_iteration=5, iterations=max_slots)

    def run_once(on: bool) -> float:
        analysis.tracer = None
        engine = SimulationEngine(
            platform,
            application,
            create_scheduler(heuristic),
            seed=7,
            max_slots=max_slots,
            analysis=analysis,
            **(instrument(analysis) if on else {}),
        )
        start = time.perf_counter()
        engine.run()
        return time.perf_counter() - start

    run_once(False)
    triples = []
    for _ in range(repeats):
        off_before = run_once(False)
        on = run_once(True)
        off_after = run_once(False)
        triples.append({False: (off_before + off_after) / 2.0, True: on})
    analysis.tracer = None
    walls = _median_triple(triples)
    return max_slots / walls[False], max_slots / walls[True]


def _overhead_row(mode: str, prefix: str, heuristic: str, max_slots: int, sps: tuple) -> dict:
    off_sps, on_sps = sps
    return {
        "mode": mode,
        "heuristic": heuristic,
        "workers": THROUGHPUT_WORKERS,
        "slots": max_slots,
        f"{prefix}_off_slots_per_second": round(off_sps, 1),
        f"{prefix}_on_slots_per_second": round(on_sps, 1),
        "overhead_percent": round(100.0 * (off_sps / on_sps - 1.0), 2),
    }


def _measure_metrics_overhead(heuristic: str, max_slots: int, repeats: int = 3) -> dict:
    """The ``metrics_overhead`` report row: collector on vs off.

    The row carries ``overhead_percent`` instead of ``slots_per_second`` —
    the gate in ``check_regression.py`` treats these rows specially
    (two-sided: a collector that suddenly got expensive *or* suspiciously
    free both fail).
    """
    sps = _overhead_walls(
        heuristic, max_slots, repeats, lambda analysis: {"metrics": MetricsCollector()}
    )
    return _overhead_row("metrics_overhead", "collector", heuristic, max_slots, sps)


def _measure_telemetry_overhead(heuristic: str, max_slots: int, repeats: int = 3) -> dict:
    """The ``telemetry_overhead`` report row: span tracer on vs off.

    Same shape and gate as :func:`_measure_metrics_overhead`.  The traced
    runs write real spans (engine phases plus the allocator's memo
    counters) to a throwaway directory so the measured cost includes JSON
    serialisation and buffered writes, not just the timing calls.
    """
    import tempfile

    from repro.telemetry.tracer import Tracer

    with tempfile.TemporaryDirectory() as scratch:
        tracer = Tracer(scratch)

        def traced(analysis):
            analysis.tracer = tracer
            return {"tracer": tracer}

        sps = _overhead_walls(heuristic, max_slots, repeats, traced)
        tracer.close()
    return _overhead_row("telemetry_overhead", "tracer", heuristic, max_slots, sps)


def _measure_multiheuristic(max_slots: int, repeats: int = 3) -> dict:
    """Best-of-*repeats* one-pass run of the full contract cell."""
    platform = paper_platform(
        PlatformSpec(num_processors=THROUGHPUT_WORKERS, ncom=10, wmin=2),
        num_tasks=5,
        seed=123,
    )
    analysis = AnalysisContext(platform)
    application = Application(tasks_per_iteration=5, iterations=max_slots)
    best = float("inf")
    for _ in range(repeats):
        driver = MultiHeuristicDriver(
            platform,
            application,
            [create_scheduler(name) for name in MULTIHEURISTIC_CELL],
            seed=7,
            max_slots=max_slots,
            analysis=analysis,
        )
        start = time.perf_counter()
        driver.run()
        best = min(best, time.perf_counter() - start)
    effective = len(MULTIHEURISTIC_CELL) * max_slots / best
    return {
        "mode": "multiheuristic",
        "heuristic": "cell",
        "heuristics": list(MULTIHEURISTIC_CELL),
        "workers": THROUGHPUT_WORKERS,
        "slots": max_slots,
        "wall_seconds": round(best, 4),
        # Effective aggregate: the one pass simulates |cell| heuristic-slots
        # per availability slot; comparable to a kernel row's slots/second,
        # which a sequential sweep would pay once per heuristic.
        "slots_per_second": round(effective, 1),
        "throughput_formula": "len(heuristics) * slots / wall_seconds",
    }


def measure_throughput(max_slots: int = THROUGHPUT_SLOTS, repeats: int = 3) -> dict:
    """Measure all modes and return the JSON-ready report."""
    runs = [_measure_engine(heuristic, max_slots, repeats) for heuristic in ("RANDOM", "IE")]
    # Proactive heuristics call the allocator and the analysis on every
    # slot, so a shorter run already takes longer than the passive rows.
    proactive_slots = min(max_slots, PROACTIVE_SLOTS)
    runs.extend(
        _measure_engine(heuristic, proactive_slots, repeats) for heuristic in PROACTIVE_HEURISTICS
    )
    runs.append(_measure_multiheuristic(max_slots, repeats))
    by_key = {(r["heuristic"], r["mode"]): r["slots_per_second"] for r in runs}
    # Overhead rows are a *difference* of two close throughputs, so they are
    # far more noise-sensitive than the throughput rows; give the median
    # A/B/A estimator (see _median_triple) two extra triples to converge.
    overhead_repeats = repeats + 2
    overhead_rows = [
        _measure_metrics_overhead(heuristic, max_slots, overhead_repeats)
        for heuristic in ("RANDOM", "IE")
    ]
    runs.extend(overhead_rows)
    telemetry_rows = [
        _measure_telemetry_overhead(heuristic, max_slots, overhead_repeats)
        for heuristic in ("RANDOM", "IE")
    ]
    runs.extend(telemetry_rows)
    report = {
        "benchmark": "simulator_throughput",
        "machine": machine_fingerprint(),
        "runs": runs,
        # Aggregate heuristic-slots/second of the one-pass cell vs the cost
        # of one solo heuristic run (what each member of a sequential sweep
        # would pay): how much cheaper a campaign cell gets.
        "speedup_multiheuristic_over_kernel": {
            heuristic: round(by_key[("cell", "multiheuristic")] / by_key[(heuristic, "kernel")], 2)
            for heuristic in ("RANDOM", "IE")
        },
        # Collector cost; the acceptance budget is < 5% on this workload.
        "metrics_overhead_percent": {
            row["heuristic"]: row["overhead_percent"] for row in overhead_rows
        },
        # Span tracer cost; same < 5% acceptance budget
        # (tracing off must be the exact pre-telemetry code path, so the off
        # side doubles as a guard against accidental always-on instrumentation).
        "telemetry_overhead_percent": {
            row["heuristic"]: row["overhead_percent"] for row in telemetry_rows
        },
        # For the record, the seed engine (commit 2fe44f3, slot-by-slot
        # sampling, no fast paths) measured on the same workload/machine:
        "reference_seed_baseline": {
            "commit": "2fe44f3",
            "slots_per_second": {"RANDOM": 8817, "IE": 8248},
        },
    }
    return report


def write_report(report: dict, path: Path = None) -> Path:
    """Write *report* as JSON; defaults to the tracked cross-PR record.

    ``benchmarks/results/BENCH_simulator.json`` holds full-workload
    (100k-slot, best-of-3) numbers only — reduced sweeps must pass an
    explicit *path* so they never overwrite the performance record.
    """
    if path is None:
        path = RESULTS_DIR / "BENCH_simulator.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


@pytest.mark.benchmark(group="simulator")
def test_throughput_report(benchmark, tmp_path):
    """Reduced-slots throughput sweep (report shape only, written to tmp)."""
    report = benchmark.pedantic(
        measure_throughput, kwargs={"max_slots": 20_000, "repeats": 1},
        rounds=1, iterations=1,
    )
    path = write_report(report, tmp_path / "BENCH_simulator.json")
    assert path.exists()
    for run in report["runs"]:
        if run["mode"].endswith("_overhead"):
            assert "overhead_percent" in run
        else:
            assert run["slots_per_second"] > 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Measure simulator throughput")
    parser.add_argument(
        "--output", default=None,
        help="write the JSON report here instead of the tracked baseline file",
    )
    parser.add_argument(
        "--slots", type=int, default=THROUGHPUT_SLOTS,
        help=f"slots per measured run (default {THROUGHPUT_SLOTS})",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N repeats (default 3)")
    cli_args = parser.parse_args()
    if cli_args.output is None and cli_args.slots != THROUGHPUT_SLOTS:
        parser.error("reduced sweeps must pass --output so the tracked baseline is not overwritten")
    full_report = measure_throughput(cli_args.slots, cli_args.repeats)
    output = write_report(full_report, Path(cli_args.output) if cli_args.output else None)
    print(json.dumps(full_report, indent=2))
    print(f"\nwritten to {output}")
