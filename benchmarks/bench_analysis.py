"""Micro-benchmarks of the Theorem 5.1 analytical machinery.

These are not paper experiments but performance guards: the heuristics call
these primitives hundreds of times per simulated slot, so regressions here
translate directly into campaign wall-clock time.

Besides the pytest-benchmark cases, this module measures the throughput of
the group-quantity primitives (`GroupAnalysis`) and of the incremental
allocator and writes the numbers to
``benchmarks/results/BENCH_analysis.json`` so the analysis-layer performance
trajectory is tracked across PRs (and gated by ``check_regression.py``):

* ``group_quantities_cold_8of20`` — 256 distinct 8-worker candidate sets
  drawn from a 20-worker pool (the shape of a proactive heuristic's
  candidate frontiers), computed against empty group caches;
* ``group_quantities_warm_8of20`` — the same sets replayed against warm
  caches (the steady state of a long simulation);
* ``incremental_allocation_m10`` — full greedy ``m = 10`` allocations over
  20 UP workers, the per-slot cost of a proactive heuristic's candidate
  construction.

Run directly for the JSON report::

    PYTHONPATH=src python benchmarks/bench_analysis.py --output BENCH_analysis.json
"""

from __future__ import annotations

import json
import math
import platform as platform_module
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.cache import AnalysisContext
from repro.analysis.criteria import get_criterion
from repro.analysis.group import GroupAnalysis
from repro.analysis.single import WorkerAnalysis
from repro.application import Configuration
from repro.availability.generators import random_markov_models
from repro.platform import PlatformSpec, paper_platform
from repro.scheduling.allocation import IncrementalAllocator

RESULTS_DIR = Path(__file__).parent / "results"

#: Candidate-frontier workload of the throughput report: distinct 8-worker
#: sets over a 20-worker pool (what the proactive heuristics evaluate).
POOL_WORKERS = 20
SET_SIZE = 8
NUM_SETS = 256


def make_platform(num_processors=20, wmin=2, seed=7):
    return paper_platform(
        PlatformSpec(num_processors=num_processors, ncom=10, wmin=wmin),
        num_tasks=10,
        seed=seed,
    )


@pytest.mark.benchmark(group="analysis")
def test_group_quantities_cold(benchmark):
    """Cost of computing Eu/A/P+/E_c for a fresh 8-worker set (no cache)."""
    models = random_markov_models(8, seed=3)
    workers = [WorkerAnalysis(model) for model in models]

    def run():
        analysis = GroupAnalysis(workers, epsilon=1e-6)
        return analysis.quantities(range(8))

    quantities = benchmark(run)
    assert 0.0 < quantities.p_plus < 1.0


@pytest.mark.benchmark(group="analysis")
def test_group_quantities_cached(benchmark):
    """Cost of a cache hit (the common case inside the heuristics)."""
    models = random_markov_models(8, seed=3)
    analysis = GroupAnalysis([WorkerAnalysis(model) for model in models], epsilon=1e-6)
    analysis.quantities(range(8))

    result = benchmark(analysis.quantities, range(8))
    assert result.horizon > 0


@pytest.mark.benchmark(group="analysis")
def test_configuration_evaluation(benchmark):
    """Cost of one full configuration estimate (comm + computation + yield)."""
    platform = make_platform()
    context = AnalysisContext(platform)
    configuration = Configuration({0: 2, 3: 2, 5: 3, 9: 2, 12: 1})

    def run():
        return context.evaluate(configuration, has_program=[0, 3], elapsed=11)

    estimate = benchmark(run)
    assert estimate.expected_time > 0


@pytest.mark.benchmark(group="analysis")
def test_incremental_allocation(benchmark):
    """Cost of one greedy m=10 allocation over 20 UP workers (the per-slot
    cost of a proactive heuristic's candidate construction)."""
    platform = make_platform()
    context = AnalysisContext(platform)
    allocator = IncrementalAllocator(get_criterion("E"), context, platform, num_tasks=10)
    up_workers = list(range(platform.num_processors))

    configuration = benchmark(allocator.allocate, up_workers)
    assert configuration is not None
    assert configuration.total_tasks() == 10


# ----------------------------------------------------------------------
# Raw throughput report (BENCH_analysis.json)
# ----------------------------------------------------------------------
def _frontier_sets(num_sets: int = NUM_SETS, seed: int = 7):
    distinct = math.comb(POOL_WORKERS, SET_SIZE)
    if num_sets > distinct:
        raise ValueError(
            f"at most {distinct} distinct {SET_SIZE}-of-{POOL_WORKERS} sets exist, "
            f"requested {num_sets}"
        )
    rng = np.random.default_rng(seed)
    seen = set()
    sets = []
    while len(sets) < num_sets:
        candidate = tuple(sorted(rng.choice(POOL_WORKERS, size=SET_SIZE, replace=False)))
        if candidate not in seen:
            seen.add(candidate)
            sets.append(candidate)
    return sets


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_case(case: str, variant: str, runner, ops: int, repeats: int) -> dict:
    wall = _best_of(runner, repeats)
    return {
        "case": case,
        "variant": variant,
        "ops": ops,
        "wall_seconds": round(wall, 6),
        "ops_per_second": round(ops / wall, 1),
    }


def measure_throughput(num_sets: int = NUM_SETS, repeats: int = 5) -> dict:
    """Measure analysis-layer throughput; return the JSON report."""
    workers = [WorkerAnalysis(model) for model in random_markov_models(POOL_WORKERS, seed=3)]
    sets = _frontier_sets(num_sets)
    # Warm every per-worker series cache first so the cold case measures the
    # group-level assembly, not the one-off closed-form evaluation of the
    # per-worker series.
    GroupAnalysis(workers, epsilon=1e-6).quantities(range(POOL_WORKERS))

    runs = []

    def cold_scalar():
        analysis = GroupAnalysis(workers, epsilon=1e-6)
        for workers_set in sets:
            analysis.quantities(workers_set)

    runs.append(
        _measure_case("group_quantities_cold_8of20", "scalar", cold_scalar, num_sets, repeats)
    )

    warm_scalar_analysis = GroupAnalysis(workers, epsilon=1e-6)
    for workers_set in sets:
        warm_scalar_analysis.quantities(workers_set)

    def warm_scalar():
        for workers_set in sets:
            warm_scalar_analysis.quantities(workers_set)

    runs.append(
        _measure_case("group_quantities_warm_8of20", "scalar", warm_scalar, num_sets, repeats)
    )

    platform = make_platform()
    up_workers = list(range(platform.num_processors))
    allocations = 50

    allocator = IncrementalAllocator(
        get_criterion("E"), AnalysisContext(platform), platform, num_tasks=10
    )

    def allocate():
        for _ in range(allocations):
            allocator.allocate(up_workers)

    runs.append(
        _measure_case("incremental_allocation_m10", "default", allocate, allocations, repeats)
    )
    return {
        "benchmark": "analysis_throughput",
        "python": platform_module.python_version(),
        "pool_workers": POOL_WORKERS,
        "set_size": SET_SIZE,
        "num_sets": num_sets,
        "runs": runs,
    }


def write_report(report: dict, path: Path = None) -> Path:
    """Write *report* as JSON; defaults to the tracked cross-PR record.

    ``benchmarks/results/BENCH_analysis.json`` holds full-workload best-of-5
    numbers only — reduced sweeps must pass an explicit *path* so they never
    overwrite the performance record.
    """
    if path is None:
        path = RESULTS_DIR / "BENCH_analysis.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


@pytest.mark.benchmark(group="analysis")
def test_throughput_report(benchmark, tmp_path):
    """Reduced-sets throughput sweep (report shape only, written to tmp)."""
    report = benchmark.pedantic(
        measure_throughput, kwargs={"num_sets": 32, "repeats": 1}, rounds=1, iterations=1
    )
    path = write_report(report, tmp_path / "BENCH_analysis.json")
    assert path.exists()
    assert all(run["ops_per_second"] > 0 for run in report["runs"])
    assert [(run["case"], run["variant"]) for run in report["runs"]] == [
        ("group_quantities_cold_8of20", "scalar"),
        ("group_quantities_warm_8of20", "scalar"),
        ("incremental_allocation_m10", "default"),
    ]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Measure analysis-layer throughput")
    parser.add_argument(
        "--output", default=None,
        help="write the JSON report here instead of the tracked baseline file",
    )
    parser.add_argument(
        "--num-sets", type=int, default=NUM_SETS,
        help=f"candidate sets per cold/warm case (default {NUM_SETS})",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="best-of-N repeats per case (default 5)",
    )
    arguments = parser.parse_args()
    measured = measure_throughput(arguments.num_sets, arguments.repeats)
    destination = write_report(
        measured, Path(arguments.output) if arguments.output else None
    )
    print(json.dumps(measured["runs"], indent=2))
    print(f"report written to {destination}")
