"""CI benchmark-regression gate for the tracked benchmark reports.

Compares fresh benchmark reports against the committed baselines under
``benchmarks/results/`` and exits non-zero if a tracked throughput metric
dropped by more than the allowed fraction (default 25%) on any key present
in both reports.  The gate is benchmark-agnostic: every ``BENCH_*.json``
report declares its kind in a ``benchmark`` field, and the schema registry
below says which fields identify a run and which field is the throughput
metric.

Typical CI usage (measure first, so the JSONs are reusable as artifacts)::

    PYTHONPATH=src python benchmarks/bench_simulator.py --output bench_current.json
    PYTHONPATH=src python benchmarks/bench_analysis.py --output bench_analysis_current.json
    PYTHONPATH=src python benchmarks/check_regression.py \
        --pair benchmarks/results/BENCH_simulator.json bench_current.json \
        --pair benchmarks/results/BENCH_analysis.json bench_analysis_current.json \
        --summary "$GITHUB_STEP_SUMMARY"

The single-pair form ``--baseline X --current Y`` is still supported; run
with neither ``--current`` nor ``--pair`` to measure the simulator sweep
in-process (``--slots``/``--repeats`` control its size).  ``--max-drop``
takes a fraction, e.g. ``0.25``.  ``--summary PATH`` appends a markdown
delta table (baseline vs current, percent change) to *PATH* — pass
``$GITHUB_STEP_SUMMARY`` in CI.

The gate compares like with like — the per-key throughput of the same
workload — so it catches code regressions.  It cannot distinguish a slow
runner from slow code; if CI hardware changes class, refresh the baselines
by committing new ``BENCH_*.json`` files from that hardware.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

DEFAULT_BASELINE = Path(__file__).parent / "results" / "BENCH_simulator.json"
DEFAULT_MAX_DROP = 0.25

#: benchmark name -> (fields identifying one run, throughput metric field).
REPORT_SCHEMAS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "simulator_throughput": (("heuristic", "mode"), "slots_per_second"),
    "analysis_throughput": (("case", "variant"), "ops_per_second"),
    "traces_throughput": (("case",), "ops_per_second"),
}

#: benchmark name -> (discriminator field, discriminator values, metric field)
#: for *overhead* rows: percentages gated two-sided on absolute change, not
#: throughputs gated one-sided on relative drop.  An overhead that balloons
#: is a regression; one that collapses to nothing usually means the measured
#: feature silently stopped doing its work.
OVERHEAD_SCHEMAS: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "simulator_throughput": (
        "mode",
        ("metrics_overhead", "telemetry_overhead"),
        "overhead_percent",
    ),
}


def _split_runs(report: dict) -> Tuple[List[dict], List[dict]]:
    """Partition ``runs`` into (throughput rows, overhead rows)."""
    schema = OVERHEAD_SCHEMAS.get(report.get("benchmark"))
    runs = report.get("runs", [])
    if schema is None:
        return list(runs), []
    field, values, _ = schema
    return (
        [run for run in runs if run.get(field) not in values],
        [run for run in runs if run.get(field) in values],
    )


def _schema(report: dict) -> Tuple[Tuple[str, ...], str]:
    kind = report.get("benchmark")
    try:
        return REPORT_SCHEMAS[kind]
    except KeyError:
        known = ", ".join(sorted(REPORT_SCHEMAS))
        raise ValueError(f"unknown benchmark report kind {kind!r} (known: {known})") from None


def _throughputs(report: dict) -> Dict[Tuple[str, ...], float]:
    """Map run-identity tuple -> throughput metric for any known report."""
    key_fields, metric = _schema(report)
    normal_runs, _ = _split_runs(report)
    return {
        tuple(str(run[field]) for field in key_fields): float(run[metric])
        for run in normal_runs
    }


def _overheads(report: dict) -> Dict[Tuple[str, ...], float]:
    """Map run-identity tuple -> overhead percentage for the report's overhead rows."""
    schema = OVERHEAD_SCHEMAS.get(report.get("benchmark"))
    if schema is None:
        return {}
    key_fields, _ = _schema(report)
    _, overhead_runs = _split_runs(report)
    metric = schema[2]
    return {
        tuple(str(run[field]) for field in key_fields): float(run[metric])
        for run in overhead_runs
        if metric in run
    }


def compare_reports(
    baseline: dict, current: dict, *, max_drop: float = DEFAULT_MAX_DROP
) -> Tuple[List[str], List[str]]:
    """Return ``(failures, lines)`` comparing *current* against *baseline*.

    ``failures`` lists every run key whose throughput dropped by more than
    ``max_drop`` (a fraction), plus every overhead row whose percentage moved
    by more than ``100 * max_drop`` percentage points in *either* direction;
    ``lines`` is the full human-readable comparison table.
    """
    if not (0.0 < max_drop < 1.0):
        raise ValueError(f"max_drop must be a fraction in (0, 1), got {max_drop}")
    if baseline.get("benchmark") != current.get("benchmark"):
        raise ValueError(
            f"cannot compare a {baseline.get('benchmark')!r} baseline against "
            f"a {current.get('benchmark')!r} report"
        )
    key_fields, metric = _schema(baseline)
    base = _throughputs(baseline)
    fresh = _throughputs(current)
    common = sorted(set(base) & set(fresh))
    base_overhead = _overheads(baseline)
    fresh_overhead = _overheads(current)
    common_overhead = sorted(set(base_overhead) & set(fresh_overhead))
    if not common and not common_overhead:
        raise ValueError("baseline and current reports share no run keys")
    key_width = max(
        10, *(len(" ".join(key)) for key in common + common_overhead)
    )
    failures: List[str] = []
    lines: List[str] = [
        f"[{baseline['benchmark']}] metric: {metric}",
        f"{' '.join(key_fields):<{key_width}} {'baseline':>12} {'current':>12} {'change':>8}",
    ]
    for key in common:
        reference = base[key]
        measured = fresh[key]
        change = (measured - reference) / reference
        verdict = ""
        if change < -max_drop:
            verdict = "  REGRESSION"
            failures.append(
                f"{'/'.join(key)}: {measured:.0f} {metric} is "
                f"{-100 * change:.1f}% below baseline {reference:.0f}"
            )
        lines.append(
            f"{' '.join(key):<{key_width}} {reference:>12.1f} {measured:>12.1f} "
            f"{100 * change:>+7.1f}%{verdict}"
        )
    max_shift = 100.0 * max_drop  # percentage points, two-sided
    for key in common_overhead:
        reference = base_overhead[key]
        measured = fresh_overhead[key]
        shift = measured - reference
        verdict = ""
        if abs(shift) > max_shift:
            verdict = "  REGRESSION"
            failures.append(
                f"{'/'.join(key)}: overhead {measured:+.2f}% moved "
                f"{shift:+.2f}pp from baseline {reference:+.2f}% "
                f"(two-sided limit {max_shift:.0f}pp)"
            )
        lines.append(
            f"{' '.join(key):<{key_width}} {reference:>11.2f}% {measured:>11.2f}% "
            f"{shift:>+6.2f}pp{verdict}"
        )
    return failures, lines


#: Fingerprint fields whose change makes throughput deltas hard to interpret.
FINGERPRINT_FIELDS = ("cpu_model", "cpu_count", "python", "numpy")


def fingerprint_warnings(baseline: dict, current: dict) -> List[str]:
    """Warnings (never failures) for machine-fingerprint mismatches.

    Reports embed a ``machine`` fingerprint (see
    ``bench_simulator.machine_fingerprint``).  When both sides carry one and
    they disagree on a significant field, the throughput comparison mixes a
    hardware/toolchain change into the code delta — worth flagging, but not
    a regression verdict, so the gate only warns.
    """
    base = baseline.get("machine")
    fresh = current.get("machine")
    if not isinstance(base, dict) or not isinstance(fresh, dict):
        return []
    warnings = []
    for field in FINGERPRINT_FIELDS:
        if field in base and field in fresh and base[field] != fresh[field]:
            warnings.append(
                f"machine fingerprint mismatch on {field!r}: baseline "
                f"{base[field]!r} vs current {fresh[field]!r} — throughput "
                "deltas may reflect the environment, not the code"
            )
    return warnings


def summary_table(baseline: dict, current: dict, *, max_drop: float) -> List[str]:
    """Markdown delta table for one report pair (``$GITHUB_STEP_SUMMARY``)."""
    key_fields, metric = _schema(baseline)
    base = _throughputs(baseline)
    fresh = _throughputs(current)
    common = sorted(set(base) & set(fresh))
    lines = [
        f"### {baseline['benchmark']} ({metric})",
        "",
        f"| {' '.join(key_fields)} | baseline | current | change |",
        "| --- | ---: | ---: | ---: |",
    ]
    for key in common:
        reference = base[key]
        measured = fresh[key]
        change = (measured - reference) / reference
        marker = " :warning:" if change < -max_drop else ""
        lines.append(
            f"| {' '.join(key)} | {reference:,.1f} | {measured:,.1f} "
            f"| {100 * change:+.1f}%{marker} |"
        )
    base_overhead = _overheads(baseline)
    fresh_overhead = _overheads(current)
    for key in sorted(set(base_overhead) & set(fresh_overhead)):
        reference = base_overhead[key]
        measured = fresh_overhead[key]
        shift = measured - reference
        marker = " :warning:" if abs(shift) > 100.0 * max_drop else ""
        lines.append(
            f"| {' '.join(key)} | {reference:+.2f}% | {measured:+.2f}% "
            f"| {shift:+.2f}pp{marker} |"
        )
    lines.append("")
    return lines


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help=f"committed baseline report (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--current",
        default=None,
        help="fresh report to check; omit to measure the simulator in-process",
    )
    parser.add_argument(
        "--pair",
        nargs=2,
        action="append",
        default=[],
        metavar=("BASELINE", "CURRENT"),
        help="baseline/current report pair; repeatable, gates all pairs at once",
    )
    parser.add_argument(
        "--max-drop",
        type=float,
        default=DEFAULT_MAX_DROP,
        help=f"maximum tolerated fractional slowdown (default {DEFAULT_MAX_DROP})",
    )
    parser.add_argument(
        "--summary",
        default=None,
        help="append a markdown delta table to this file (e.g. $GITHUB_STEP_SUMMARY)",
    )
    parser.add_argument(
        "--slots",
        type=int,
        default=None,
        help="slots per run when measuring in-process (default: the full workload)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="best-of-N repeats when measuring in-process (default 3)",
    )
    args = parser.parse_args(argv)

    pairs: List[Tuple[dict, dict]] = []
    try:
        for baseline_path, current_path in args.pair:
            pairs.append((_load(baseline_path), _load(current_path)))
        if not args.pair:
            baseline = _load(args.baseline)
            if args.current is not None:
                current = _load(args.current)
            else:
                sys.path.insert(0, str(Path(__file__).parent))
                from bench_simulator import THROUGHPUT_SLOTS, measure_throughput

                current = measure_throughput(args.slots or THROUGHPUT_SLOTS, args.repeats)
            pairs.append((baseline, current))
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read report: {error}", file=sys.stderr)
        return 2

    failures: List[str] = []
    summary_lines: List[str] = []
    for baseline, current in pairs:
        try:
            pair_failures, lines = compare_reports(baseline, current, max_drop=args.max_drop)
        except ValueError as error:
            print(f"cannot compare reports: {error}", file=sys.stderr)
            return 2
        failures.extend(pair_failures)
        print("\n".join(lines))
        for warning in fingerprint_warnings(baseline, current):
            print(f"WARNING: {warning}")
        print()
        if args.summary:
            summary_lines.extend(summary_table(baseline, current, max_drop=args.max_drop))

    if args.summary and summary_lines:
        with open(args.summary, "a") as handle:
            handle.write("\n".join(["## Benchmark regression gate", ""] + summary_lines))
            handle.write("\n")

    if failures:
        print(
            f"FAIL: {len(failures)} throughput regression(s) beyond {100 * args.max_drop:.0f}%:",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"OK: no tracked run dropped more than {100 * args.max_drop:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
