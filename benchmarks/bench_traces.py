"""Micro-benchmarks of the trace subsystem: ingestion and compiled replay.

Two costs matter for trace-driven campaigns:

* **ingestion** — parsing a recorded interval log into the int8 state matrix
  (``repro.traces.formats``), measured in interval rows/second over a
  scaled-up copy of the shipped example dataset;
* **compiled replay** — simulating on trace-replay models, whose
  ``sample_block`` feeds the engine's vectorised fast path, measured in
  engine slots/second.

Run directly for the JSON report tracked across PRs
(``benchmarks/results/BENCH_traces.json``, gated by
``benchmarks/check_regression.py`` under the ``traces_throughput`` schema)::

    PYTHONPATH=src python benchmarks/bench_traces.py
"""

from __future__ import annotations

import csv
import io
import json
import platform as platform_module
import time
from pathlib import Path

import pytest

from repro.application import Application
from repro.platform.builders import PlatformSpec, availability_platform
from repro.scheduling import create_scheduler
from repro.simulation import SimulationEngine
from repro.traces.formats import load_interval_csv, trace_from_intervals
from repro.traces.resample import bootstrap_models

RESULTS_DIR = Path(__file__).parent / "results"
EXAMPLE_CSV = Path(__file__).parent.parent / "examples" / "traces" / "desktop_week.csv"

#: Ingestion workload: the example dataset replicated to this many rows.
INGEST_ROWS = 40_000
#: Replay workload: 20 workers, 100k capped slots (matches bench_simulator).
REPLAY_WORKERS = 20
REPLAY_SLOTS = 100_000


def _scaled_csv_text(target_rows: int) -> str:
    """The example CSV's interval rows replicated across synthetic nodes."""
    base_lines = [
        line for line in EXAMPLE_CSV.read_text().splitlines()[1:] if line.strip()
    ]
    lines = ["node,start,end,state"]
    clone = 0
    while len(lines) - 1 < target_rows:
        for line in base_lines:
            node, rest = line.split(",", 1)
            lines.append(f"{node}c{clone},{rest}")
            if len(lines) - 1 >= target_rows:
                break
        clone += 1
    return "\n".join(lines) + "\n"


def measure_ingest(target_rows: int = INGEST_ROWS, repeats: int = 3) -> dict:
    """Best-of-*repeats* interval rows/second for CSV ingestion."""
    text = _scaled_csv_text(target_rows)
    num_rows = text.count("\n") - 1
    best = float("inf")
    trace = None
    for _ in range(repeats):
        start = time.perf_counter()
        # Parse from an in-memory file via the row-level API (load_interval_csv
        # is the same code path behind a file read).
        records = []
        reader = csv.reader(io.StringIO(text))
        next(reader)
        for row in reader:
            records.append((row[0], float(row[1]), float(row[2]), row[3]))
        trace = trace_from_intervals(records, slot_duration=900)
        best = min(best, time.perf_counter() - start)
    assert trace is not None and trace.horizon == 672
    return {
        "case": "ingest_csv",
        "rows": num_rows,
        "processors": trace.num_processors,
        "wall_seconds": round(best, 4),
        "ops_per_second": round(num_rows / best, 1),
    }


def _replay_platform(seed: int = 123):
    recording = load_interval_csv(EXAMPLE_CSV, slot_duration=900)

    def factory(rng, count):
        return bootstrap_models(recording, rng, count, block_length=96, horizon=2016)

    return availability_platform(
        PlatformSpec(num_processors=REPLAY_WORKERS, ncom=10, wmin=2),
        num_tasks=5,
        seed=seed,
        model_factory=factory,
    )


def measure_replay(max_slots: int = REPLAY_SLOTS, repeats: int = 3) -> dict:
    """Best-of-*repeats* engine slots/second replaying bootstrap trace models."""
    platform = _replay_platform()
    application = Application(tasks_per_iteration=5, iterations=max_slots)
    best = float("inf")
    for _ in range(repeats):
        engine = SimulationEngine(
            platform,
            application,
            create_scheduler("RANDOM"),
            seed=7,
            max_slots=max_slots,
        )
        start = time.perf_counter()
        engine.run()
        best = min(best, time.perf_counter() - start)
    return {
        "case": "replay",
        "workers": REPLAY_WORKERS,
        "slots": max_slots,
        "wall_seconds": round(best, 4),
        "ops_per_second": round(max_slots / best, 1),
    }


def measure_traces(
    max_slots: int = REPLAY_SLOTS, ingest_rows: int = INGEST_ROWS, repeats: int = 3
) -> dict:
    """Measure all cases and return the JSON-ready report."""
    return {
        "benchmark": "traces_throughput",
        "python": platform_module.python_version(),
        "runs": [measure_ingest(ingest_rows, repeats), measure_replay(max_slots, repeats)],
    }


def write_report(report: dict, path: Path = None) -> Path:
    """Write *report* as JSON; defaults to the tracked cross-PR record."""
    if path is None:
        path = RESULTS_DIR / "BENCH_traces.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# pytest-benchmark smoke cases (nightly, REPRO_BENCH_SCALE=smoke)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="traces")
def test_ingest_example_dataset(benchmark):
    """Ingesting the shipped example CSV (small, shape check only)."""
    trace = benchmark.pedantic(
        load_interval_csv, args=(EXAMPLE_CSV,), kwargs={"slot_duration": 900},
        rounds=3, iterations=1,
    )
    assert trace.num_processors == 12 and trace.horizon == 672


@pytest.mark.benchmark(group="traces")
def test_replay_throughput_report(benchmark, tmp_path):
    """Reduced-slots traces throughput sweep (report shape only, written to tmp)."""
    report = benchmark.pedantic(
        measure_traces,
        kwargs={"max_slots": 10_000, "ingest_rows": 2_000, "repeats": 1},
        rounds=1, iterations=1,
    )
    path = write_report(report, tmp_path / "BENCH_traces.json")
    assert path.exists()
    assert all(run["ops_per_second"] > 0 for run in report["runs"])


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Measure trace-subsystem throughput")
    parser.add_argument(
        "--output", default=None,
        help="write the JSON report here instead of the tracked baseline file",
    )
    parser.add_argument(
        "--slots", type=int, default=REPLAY_SLOTS,
        help=f"slots per replay run (default {REPLAY_SLOTS})",
    )
    parser.add_argument(
        "--rows", type=int, default=INGEST_ROWS,
        help=f"interval rows for the ingestion case (default {INGEST_ROWS})",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N repeats (default 3)")
    cli_args = parser.parse_args()
    if cli_args.output is None and (
        cli_args.slots != REPLAY_SLOTS or cli_args.rows != INGEST_ROWS
    ):
        parser.error("reduced sweeps must pass --output so the tracked baseline is not overwritten")
    full_report = measure_traces(cli_args.slots, cli_args.rows, cli_args.repeats)
    output = write_report(full_report, Path(cli_args.output) if cli_args.output else None)
    print(json.dumps(full_report, indent=2))
    print(f"\nwritten to {output}")
