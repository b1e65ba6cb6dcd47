"""Command-line interface: ``python -m repro <command>`` or ``repro-grid <command>``.

Commands
--------
``table1``    Reproduce Table I (m = 5, all 17 heuristics).
``table2``    Reproduce Table II (m = 10, best 8 heuristics).
``figure2``   Reproduce the Figure 2 series (%diff vs wmin, m = 10).
``campaign``  Run a declarative campaign from a spec file or named built-in,
              optionally against a persistent result store (resume) and as
              one shard of a multi-machine run.
``merge``     Combine shard stores into one store and report on it.
``report``    Render a result store as summary tables (text) or as a
              self-contained HTML dashboard with Monte Carlo bands and
              Gantt drill-downs (``--html``).
``demo``      Simulate one instance under one heuristic and print a Gantt chart.
``offline``   Solve a random small off-line instance exactly (Theorem 4.1 artefacts).
``serve``     Run the campaign service: an HTTP API + durable job queue
              over the same campaign runner (submit specs, share
              deduplicated runs, poll progress, fetch HTML reports).
``profile``   Summarise span traces written by ``campaign --trace`` or
              ``serve --trace``: wall-clock share per engine/allocator
              phase, memoisation hit rates, per-heuristic breakdowns.
``heuristics``  List the registered heuristics (family, parameters, description).
``models``    List the registered availability-model substrates.
``traces``    Recorded-trace pipeline: ``convert`` between log formats,
              ``stats`` for interval statistics, ``fit`` calibrated models
              with goodness-of-fit, ``sample`` bootstrap/fitted substrates.

Every table/figure command is a thin wrapper over the campaign runner: it
starts from the built-in spec named by ``--scale`` (``smoke``, ``reduced``
or ``paper-table1`` for ``paper``), renames it after the command, applies the
individual overrides (``--scenarios``, ``--trials``, ``--wmin``, ``--ncom``,
``--cap``, ``--iterations``) and runs it; ``--jobs`` fans out over processes
and ``--output`` persists the raw results as JSON.

``campaign`` is the resumable path: ``repro campaign --spec sweep.toml
--store runs/sweep`` records every finished (scenario, trial, heuristic)
cell durably, skips completed cells on restart, and with ``--shard i/N``
deterministically partitions the work so N machines can split one campaign
(recombine with ``repro merge``).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.exceptions import ExperimentError, ReproError
from repro.experiments.figures import figure2_series, format_figure2
from repro.experiments.io import save_results
from repro.experiments.metrics import summarize_results
from repro.experiments.report import format_store_status
from repro.experiments.runner import CellProgress, run_campaign_spec
from repro.experiments.spec import BUILTIN_SPEC_NAMES, CampaignSpec, builtin_spec, load_spec
from repro.experiments.store import ResultStore, merge_stores, store_status
from repro.experiments.tables import format_spec_report, format_summaries
from repro.availability.registry import AVAILABILITY_MODELS
from repro.scheduling.registry import (
    ALL_HEURISTICS,
    HEURISTICS,
    TABLE2_HEURISTICS,
    available_heuristics,
    create_scheduler,
)
from repro.utils.tables import format_table

__all__ = ["main", "build_parser"]


#: ``--scale`` preset of the table/figure commands -> the built-in spec it runs.
_SCALE_SPECS = {"smoke": "smoke", "reduced": "reduced", "paper": "paper-table1"}


def _table_spec(args: argparse.Namespace) -> CampaignSpec:
    """The campaign a ``table1``/``table2``/``figure2`` invocation runs.

    Renaming the built-in after the command keeps every seed the command
    has always derived: seeds fold in the campaign name, never the preset.
    """
    overrides = dict(
        name=args.command,
        m_values=(args.default_m,),
        heuristics=tuple(args.heuristics or args.default_heuristics),
        estimator=args.estimator,
    )
    if args.scenarios is not None:
        overrides["scenarios_per_cell"] = args.scenarios
    if args.trials is not None:
        overrides["trials_per_scenario"] = args.trials
    if args.wmin:
        overrides["wmin_values"] = tuple(args.wmin)
    if args.ncom:
        overrides["ncom_values"] = tuple(args.ncom)
    if args.cap is not None:
        overrides["makespan_cap"] = args.cap
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    return replace(builtin_spec(_SCALE_SPECS[args.scale]), **overrides)


def _print_cell_progress(event: CellProgress) -> None:
    """Per-cell progress line on stderr (shared by every campaign command)."""
    if event.skipped:
        print(
            f"  resuming: {event.done}/{event.total} cells already in store",
            file=sys.stderr, flush=True,
        )
    else:
        print(
            f"  [{event.done}/{event.total}] {event.scenario} "
            f"trial {event.trial} {event.heuristic}",
            file=sys.stderr, flush=True,
        )


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", choices=tuple(_SCALE_SPECS), default="reduced",
        help="campaign size: the smoke, reduced or paper-table1 built-in spec "
        "(default: reduced)",
    )
    parser.add_argument("--scenarios", type=int, default=None, help="scenarios per grid cell")
    parser.add_argument("--trials", type=int, default=None, help="trials per scenario")
    parser.add_argument("--wmin", type=int, nargs="+", default=None, help="wmin values to sweep")
    parser.add_argument("--ncom", type=int, nargs="+", default=None, help="ncom values to sweep")
    parser.add_argument("--cap", type=int, default=None, help="makespan cap (slots)")
    parser.add_argument("--iterations", type=int, default=None, help="iterations per run")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    parser.add_argument(
        "--estimator", choices=("paper", "renewal"), default="paper",
        help="E^(S)(W) estimator used by the heuristics",
    )
    parser.add_argument(
        "--heuristics", nargs="+", default=None, help="restrict to these heuristic names"
    )
    parser.add_argument("--output", default=None, help="write raw campaign results to this JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Scheduling Tightly-Coupled Applications on "
        "Heterogeneous Desktop Grids' (HCW 2013)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, default_m, default_heuristics, help_text in (
        ("table1", 5, ALL_HEURISTICS, "reproduce Table I (m=5, all heuristics)"),
        ("table2", 10, TABLE2_HEURISTICS, "reproduce Table II (m=10, best heuristics)"),
        ("figure2", 10, TABLE2_HEURISTICS, "reproduce Figure 2 (%%diff vs wmin, m=10)"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_campaign_arguments(sub)
        sub.set_defaults(default_m=default_m, default_heuristics=default_heuristics)

    campaign = subparsers.add_parser(
        "campaign",
        help="run a declarative campaign (spec file or built-in) with resume/sharding",
    )
    source = campaign.add_mutually_exclusive_group()
    source.add_argument("--spec", default=None, help="campaign spec file (TOML or JSON)")
    source.add_argument(
        "--builtin", default=None, help=f"named built-in spec ({', '.join(BUILTIN_SPEC_NAMES)})"
    )
    source.add_argument(
        "--list-builtins", action="store_true", help="list built-in spec names and exit"
    )
    campaign.add_argument(
        "--store", default=None,
        help="campaign directory for the persistent result store (enables resume)",
    )
    campaign.add_argument(
        "--shard", default="1/1", metavar="I/N",
        help="run only shard I of N (deterministic cell partition, default 1/1)",
    )
    campaign.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    campaign.add_argument(
        "--max-cells", type=int, default=None,
        help="stop after this many newly-run cells (smoke tests / simulated interrupts)",
    )
    campaign.add_argument(
        "--status", action="store_true",
        help="print the store's completion status and exit (requires --store)",
    )
    campaign.add_argument(
        "--report", choices=("tables", "none"), default="tables",
        help="print Table-I-style summaries after the run (default: tables)",
    )
    campaign.add_argument(
        "--collect-metrics", action="store_true",
        help="sample per-slot metric series during every run (stored with the "
        "results; scalar results stay bit-identical)",
    )
    campaign.add_argument(
        "--metrics-stride", type=int, default=None, metavar="N",
        help="slots between metric samples (default: the spec's stride, 64)",
    )
    campaign.add_argument(
        "--trace", action="store_true",
        help="write span traces to <store>/telemetry (requires --store; "
        "inspect with `repro profile`; results stay bit-identical)",
    )
    campaign.add_argument(
        "--output", default=None, help="write the raw shard results to this JSON file"
    )

    merge = subparsers.add_parser(
        "merge", help="merge shard result stores into one store"
    )
    merge.add_argument("stores", nargs="+", help="shard store directories to merge")
    merge.add_argument("--output", required=True, help="destination store directory")
    merge.add_argument(
        "--report", choices=("tables", "none"), default="tables",
        help="print Table-I-style summaries of the merged store (default: tables)",
    )

    report = subparsers.add_parser(
        "report",
        help="render a result store as text tables or an HTML dashboard",
    )
    report.add_argument("store", help="result store directory (from campaign --store or merge)")
    report.add_argument(
        "--html", action="store_true",
        help="write a self-contained HTML dashboard (Monte Carlo band plots, "
        "Gantt drill-down) instead of printing text tables",
    )
    report.add_argument(
        "--output", default=None, metavar="PATH",
        help="HTML destination (default: <store>/report.html)",
    )
    report.add_argument(
        "--gantt", type=int, default=2, metavar="N",
        help="runs to re-simulate for the Gantt drill-down (default 2, 0 disables)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the campaign service (HTTP API + durable job queue)",
    )
    serve.add_argument(
        "--root", default="service-root",
        help="durable service directory: jobs/, stores/ and logs/ live here "
        "(default: ./service-root)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000, help="bind port (default 8000)")
    serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent campaign worker processes (default 2)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3,
        help="abnormal worker deaths per job before it is failed (default 3)",
    )
    serve.add_argument(
        "--poll-interval", type=float, default=0.2,
        help="dispatcher poll interval in seconds (default 0.2)",
    )
    serve.add_argument(
        "--trace", action="store_true",
        help="emit job-lifecycle and worker span traces to <root>/telemetry "
        "(inspect with `repro profile`)",
    )

    profile = subparsers.add_parser(
        "profile",
        help="summarise span traces: where wall-clock time went, memo hit rates",
    )
    profile.add_argument(
        "path",
        help="a spans-*.jsonl file, a telemetry directory, or a store/service "
        "root written with --trace",
    )
    profile.add_argument(
        "--html", action="store_true",
        help="write a self-contained HTML profile instead of printing text",
    )
    profile.add_argument(
        "--output", default=None, metavar="PATH",
        help="HTML destination (default: <trace dir>/profile.html)",
    )

    demo = subparsers.add_parser("demo", help="simulate one instance and print a Gantt chart")
    demo.add_argument("--heuristic", default="Y-IE", help="heuristic name (default Y-IE)")
    demo.add_argument("--m", type=int, default=5, help="tasks per iteration")
    demo.add_argument("--ncom", type=int, default=10)
    demo.add_argument("--wmin", type=int, default=1)
    demo.add_argument("--processors", type=int, default=10)
    demo.add_argument("--iterations", type=int, default=3)
    demo.add_argument("--seed", type=int, default=1)
    demo.add_argument("--gantt-slots", type=int, default=80, help="slots of Gantt chart to print")

    offline = subparsers.add_parser("offline", help="solve a small random off-line instance exactly")
    offline.add_argument("--left", type=int, default=8, help="|V| (processors)")
    offline.add_argument("--right", type=int, default=10, help="|W| (time-slots)")
    offline.add_argument("--edge-probability", type=float, default=0.6)
    offline.add_argument("--a", type=int, default=3, help="workers required (m)")
    offline.add_argument("--b", type=int, default=3, help="common UP slots required (w)")
    offline.add_argument("--seed", type=int, default=0)

    heuristics = subparsers.add_parser(
        "heuristics",
        help="list registered heuristics with parameters and descriptions",
    )
    heuristics.add_argument(
        "--family", default=None,
        help="restrict to one family (baseline, passive, proactive, extension)",
    )
    heuristics.add_argument(
        "--names-only", action="store_true", help="print bare names, one per line"
    )

    models = subparsers.add_parser(
        "models",
        help="list registered availability-model substrates with parameters",
    )
    models.add_argument(
        "--names-only", action="store_true", help="print bare names, one per line"
    )
    models.add_argument(
        "--family", default=None,
        help="restrict to one family (synthetic, trace, hazard, ...)",
    )

    traces = subparsers.add_parser(
        "traces",
        help="recorded-trace pipeline: convert, stats, fit, sample",
    )
    traces_sub = traces.add_subparsers(dest="traces_command", required=True)

    def add_input_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("input", help="trace file (csv/jsonl/json/trace/txt) or catalog directory")
        sub.add_argument("--dataset", default=None, help="dataset name inside a catalog directory")
        sub.add_argument(
            "--slot", type=float, default=1.0,
            help="recorded time units per slot for CSV/JSONL inputs (default 1.0)",
        )
        sub.add_argument(
            "--gap", choices=("down", "hold", "error"), default="down",
            help="state for slots no interval covers (default down)",
        )
        sub.add_argument(
            "--overlap", choices=("error", "first", "last"), default="error",
            help="conflicting-interval policy (default error)",
        )
        sub.add_argument(
            "--horizon", type=int, default=None,
            help="force the trace length in slots (default: from the recording)",
        )

    convert = traces_sub.add_parser(
        "convert", help="re-encode a recorded trace in another format"
    )
    add_input_arguments(convert)
    convert.add_argument("--output", required=True, help="destination file")
    convert.add_argument(
        "--to", choices=("csv", "jsonl", "compact", "json"), default=None,
        help="output format (default: inferred from the output suffix)",
    )
    convert.add_argument(
        "--output-slot", type=float, default=1.0,
        help="time units per slot written to CSV/JSONL outputs (default 1.0)",
    )

    stats = traces_sub.add_parser(
        "stats", help="per-processor interval statistics of a recorded trace"
    )
    add_input_arguments(stats)
    stats.add_argument(
        "--censor-edges", action="store_true",
        help="exclude edge-censored first/last runs from mean interval lengths",
    )

    fit = traces_sub.add_parser(
        "fit", help="fit calibrated models and report goodness-of-fit"
    )
    add_input_arguments(fit)
    fit.add_argument(
        "--kind",
        choices=("markov", "semi-markov", "diurnal", "correlated", "degradation", "all"),
        default="all",
        help="model family to calibrate (default: all families)",
    )
    fit.add_argument(
        "--day-length", type=int, default=96,
        help="slots per day for the diurnal fit (default 96)",
    )
    fit.add_argument(
        "--phases", type=int, default=2,
        help="phase bins per day for the diurnal fit (default 2)",
    )
    fit.add_argument(
        "--prior", type=float, default=0.0,
        help="Laplace smoothing count for the markov/diurnal fits (default 0)",
    )
    fit.add_argument(
        "--pm-level", type=int, default=3,
        help="assumed preventive-maintenance wear level for the degradation fit (default 3)",
    )
    fit.add_argument(
        "--fail-level", type=int, default=6,
        help="assumed failure wear level for the degradation fit (default 6)",
    )

    sample = traces_sub.add_parser(
        "sample", help="generate a calibrated substrate from a recorded trace"
    )
    add_input_arguments(sample)
    sample.add_argument(
        "--kind",
        choices=("bootstrap", "markov", "semi-markov", "diurnal", "correlated", "degradation"),
        default="bootstrap",
        help="generator: bootstrap resampling or a fitted family (default bootstrap)",
    )
    sample.add_argument(
        "--processors", type=int, default=None,
        help="rows to generate (default: as recorded)",
    )
    sample.add_argument(
        "--length", type=int, default=None,
        help="slots to generate (default: the recorded horizon)",
    )
    sample.add_argument(
        "--block", type=int, default=None,
        help="block-bootstrap block length in slots (default: whole-row bootstrap)",
    )
    sample.add_argument("--seed", type=int, default=0, help="generation seed (default 0)")
    sample.add_argument("--output", required=True, help="destination trace file")
    sample.add_argument(
        "--to", choices=("csv", "jsonl", "compact", "json"), default=None,
        help="output format (default: inferred from the output suffix)",
    )
    sample.add_argument(
        "--output-slot", type=float, default=1.0,
        help="time units per slot written to CSV/JSONL outputs (default 1.0)",
    )
    sample.add_argument(
        "--day-length", type=int, default=96,
        help="slots per day for the diurnal fit (default 96)",
    )
    sample.add_argument(
        "--phases", type=int, default=2,
        help="phase bins per day for the diurnal fit (default 2)",
    )
    sample.add_argument(
        "--pm-level", type=int, default=3,
        help="assumed preventive-maintenance wear level for the degradation fit (default 3)",
    )
    sample.add_argument(
        "--fail-level", type=int, default=6,
        help="assumed failure wear level for the degradation fit (default 6)",
    )

    return parser


def _cmd_table(args: argparse.Namespace) -> int:
    spec = _table_spec(args)
    results = run_campaign_spec(spec, n_jobs=args.jobs, cell_progress=_print_cell_progress)
    if args.output:
        path = save_results(results, args.output, label=spec.name)
        print(f"raw results written to {path}", file=sys.stderr)

    if args.command == "figure2":
        series = figure2_series(results)
        print(format_figure2(series, heuristics=[h for h in spec.heuristics if h in series]))
    else:
        summaries = summarize_results(results)
        title = "Table I (m = 5)" if args.command == "table1" else "Table II (m = 10)"
        instances = spec.num_cells() // len(spec.heuristics)
        print(format_summaries(summaries, title=f"{title} — {instances} instances"))
    return 0


def _parse_shard(text: str) -> Tuple[int, int]:
    match = re.fullmatch(r"(\d+)/(\d+)", text.strip())
    if not match:
        raise ExperimentError(f"--shard must look like I/N (e.g. 2/4), got {text!r}")
    return int(match.group(1)), int(match.group(2))


def _cmd_campaign_spec(args: argparse.Namespace) -> int:
    if args.list_builtins:
        for name in BUILTIN_SPEC_NAMES:
            spec = builtin_spec(name)
            print(f"{name}: {spec.num_cells()} cells "
                  f"(m={list(spec.m_values)}, {len(spec.heuristics)} heuristics)")
        return 0
    if args.spec:
        spec = load_spec(args.spec)
    elif args.builtin:
        spec = builtin_spec(args.builtin)
    else:
        print("campaign: one of --spec, --builtin or --list-builtins is required",
              file=sys.stderr)
        return 2
    shard = _parse_shard(args.shard)

    if args.status:
        if not args.store:
            print("campaign: --status requires --store", file=sys.stderr)
            return 2
        # A read-only query: open the existing store (no directory creation).
        store = ResultStore.open(args.store)
        if store.spec.spec_hash() != spec.spec_hash():
            print(
                f"campaign: store {args.store} belongs to a different campaign "
                f"(spec hash mismatch)",
                file=sys.stderr,
            )
            store.close()
            return 2
        print(format_store_status(store_status(store)))
        store.close()
        return 0

    if args.trace and not args.store:
        print("campaign: --trace requires --store", file=sys.stderr)
        return 2

    store = None
    trace_dir = None
    if args.store:
        store = ResultStore.create(args.store, spec)
        if args.trace:
            trace_dir = str(Path(args.store) / "telemetry")

    try:
        results = run_campaign_spec(
            spec,
            store=store,
            shard=shard,
            n_jobs=args.jobs,
            max_cells=args.max_cells,
            cell_progress=_print_cell_progress,
            # None defers to the spec's own settings.
            collect_metrics=True if args.collect_metrics else None,
            metrics_stride=args.metrics_stride,
            trace_dir=trace_dir,
        )
    finally:
        if store is not None:
            store.close()
    if trace_dir is not None:
        print(
            f"span traces in {trace_dir} (summarise with `repro profile {args.store}`)",
            file=sys.stderr,
        )
    if args.output:
        path = save_results(results, args.output, label=spec.name)
        print(f"raw results written to {path}", file=sys.stderr)
    if args.report == "tables":
        if shard != (1, 1):
            print(
                "shard results are partial; run `repro merge` over all shards "
                "for comparable tables",
                file=sys.stderr,
            )
        else:
            print(format_spec_report(results, spec))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore.open(args.store)
    try:
        results = store.results()
        spec = store.spec
    finally:
        store.close()
    if not results:
        print(f"Campaign {spec.name!r}: no completed cells yet (store {args.store})")
        return 0
    if not args.html:
        print(format_spec_report(results, spec))
        return 0
    from pathlib import Path

    from repro.metrics.html import render_html_report

    html = render_html_report(results, spec, gantt_runs=args.gantt)
    destination = Path(args.output) if args.output else Path(args.store) / "report.html"
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(html, encoding="utf-8")
    print(f"report written to {destination}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    store = merge_stores(args.stores, args.output)
    status = store_status(store)
    print(format_store_status(status))
    if args.report == "tables":
        print()
        print(format_spec_report(store.results(), store.spec))
    store.close()
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.application import Application
    from repro.platform import PlatformSpec, paper_platform
    from repro.simulation import SimulationEngine
    from repro.simulation.gantt import activity_from_events, render_gantt

    spec = PlatformSpec(num_processors=args.processors, ncom=args.ncom, wmin=args.wmin)
    platform = paper_platform(spec, num_tasks=args.m, seed=args.seed)
    application = Application(tasks_per_iteration=args.m, iterations=args.iterations)
    scheduler = create_scheduler(args.heuristic)
    max_slots = 200_000
    engine = SimulationEngine(
        platform, application, scheduler, seed=args.seed, max_slots=max_slots,
        record_events=True,
    )
    result = engine.run()
    print(result.describe())
    window = min(args.gantt_slots, result.makespan or max_slots)
    print()
    activity = activity_from_events(engine.events, platform.num_processors, window)
    # The chart's states are those of the trace the run read.
    print(render_gantt(activity, engine.trace.block(0, window)))
    return 0


def _cmd_offline(args: argparse.Namespace) -> int:
    from repro.offline import (
        ENCDInstance,
        encd_to_offline_mu1,
        encd_to_offline_mu_inf,
        solve_encd_bruteforce,
        solve_offline_mu1,
        solve_offline_mu_inf,
    )

    instance = ENCDInstance.random(
        args.left, args.right, args.edge_probability, args.a, args.b, seed=args.seed
    )
    biclique = solve_encd_bruteforce(instance)
    mu1 = solve_offline_mu1(encd_to_offline_mu1(instance))
    mu_inf = solve_offline_mu_inf(encd_to_offline_mu_inf(instance))
    rows = [
        ["ENCD bi-clique (a, b)", "feasible" if biclique else "infeasible"],
        ["OFF-LINE-COUPLED (mu=1)", "feasible" if mu1 else "infeasible"],
        ["OFF-LINE-COUPLED (mu=inf)", "feasible" if mu_inf else "infeasible"],
    ]
    print(format_table(rows, headers=["problem", "answer"], align_right=[False, False]))
    if mu1:
        print(f"mu=1 solution: workers={sorted(mu1.workers)}, slots={list(mu1.slots)}")
    if mu_inf:
        print(
            f"mu=inf solution: workers={sorted(mu_inf.workers)}, "
            f"tasks/worker={mu_inf.tasks_per_worker}, {mu_inf.num_slots} slots"
        )
    return 0


def _parameters_column(info) -> str:
    if not info.parameters:
        return "-"
    fragments = []
    for parameter in info.parameters:
        text = parameter.describe()
        if parameter.aliases:
            text += f" (alias: {', '.join(parameter.aliases)})"
        fragments.append(text)
    return "; ".join(fragments)


def _cmd_heuristics(args: argparse.Namespace) -> int:
    if args.family is not None and args.family not in HEURISTICS.families():
        print(
            f"heuristics: unknown family {args.family!r}; "
            f"expected one of {HEURISTICS.families()}",
            file=sys.stderr,
        )
        return 2
    names = available_heuristics(family=args.family)
    if args.names_only:
        for name in names:
            print(name)
        return 0
    rows = []
    for name in names:
        info = HEURISTICS.get(name)
        rows.append(
            [
                info.name,
                info.family,
                "paper" if info.paper else "extension",
                _parameters_column(info),
                info.description,
            ]
        )
    print(format_table(
        rows,
        headers=["name", "family", "origin", "parameters", "description"],
        align_right=[False] * 5,
    ))
    print()
    print('Parameterized expressions are accepted wherever a heuristic name is:')
    print('e.g. "THRESHOLD-IE(tau=0.5)", "STICKY(patience=3)", "FAST(k=8)".')
    return 0


def _parameter_default_text(parameter) -> str:
    if parameter.required:
        return "(required)"
    default = parameter.default
    if isinstance(default, tuple):
        # [low, high] per-processor ranges, in the spec-file spelling.
        return "[" + ", ".join(repr(value) for value in default) + "]"
    return repr(default)


def _cmd_models(args: argparse.Namespace) -> int:
    if args.family is not None and args.family not in AVAILABILITY_MODELS.families():
        print(
            f"models: unknown family {args.family!r}; "
            f"expected one of {AVAILABILITY_MODELS.families()}",
            file=sys.stderr,
        )
        return 2
    infos = AVAILABILITY_MODELS.infos(family=args.family)
    if args.names_only:
        for info in infos:
            print(info.name)
        return 0
    for info in infos:
        print(f"{info.name} [{info.family}] - {info.description}")
        if not info.parameters:
            print("  (no parameters)")
        else:
            rows = [
                [
                    parameter.name,
                    parameter.kind.__name__,
                    _parameter_default_text(parameter),
                    ", ".join(parameter.aliases) if parameter.aliases else "-",
                    parameter.description,
                ]
                for parameter in info.parameters
            ]
            table = format_table(
                rows,
                headers=["parameter", "type", "default", "aliases", "description"],
                align_right=[False] * 5,
            )
            print("\n".join("  " + line for line in table.splitlines()))
        print()
    print("Numeric parameters accept a scalar or a [low, high] per-processor range")
    print('in campaign specs, e.g. [availability] kind = "semi-markov", mean_up = [25.0, 60.0].')
    print('Expression spellings work anywhere a kind is accepted, e.g.')
    print('"correlated(domains=4, rate=0.002)" or "degradation(wear_rate=0.05)".')
    return 0


def _load_traces_input(args: argparse.Namespace):
    """Load the trace named by a ``repro traces`` subcommand's arguments."""
    from pathlib import Path

    from repro.traces.formats import TraceCatalog, load_trace

    path = Path(args.input)
    if path.is_dir():
        catalog = TraceCatalog(path)
        if args.dataset is None:
            raise ExperimentError(
                f"{path} is a catalog directory: pass --dataset "
                f"(available: {catalog.names()})"
            )
        defaults = {"slot": args.slot, "gap": args.gap, "overlap": args.overlap}
        if args.horizon is not None:
            defaults["horizon"] = args.horizon
        return catalog.load(args.dataset, defaults=defaults)
    return load_trace(
        path,
        slot_duration=args.slot,
        gap=args.gap,
        overlap=args.overlap,
        horizon=args.horizon,
    )


def _cmd_traces(args: argparse.Namespace) -> int:
    from repro.exceptions import ReproError
    from repro.traces.formats import write_trace

    try:
        trace = _load_traces_input(args)

        if args.traces_command == "convert":
            path = write_trace(
                trace, args.output, format=args.to, slot_duration=args.output_slot
            )
            print(
                f"{args.input}: {trace.num_processors} processors x "
                f"{trace.horizon} slots written to {path}"
            )
            return 0

        if args.traces_command == "stats":
            return _cmd_traces_stats(trace, args)

        if args.traces_command == "fit":
            return _cmd_traces_fit(trace, args)

        # sample
        from repro.traces.fit import FIT_KINDS
        from repro.traces.resample import bootstrap_trace, fitted_trace

        for name in ("processors", "length"):
            value = getattr(args, name)
            if value is not None and value < 1:
                raise ExperimentError(f"--{name} must be >= 1, got {value}")
        processors = trace.num_processors if args.processors is None else args.processors
        length = trace.horizon if args.length is None else args.length
        if args.kind == "bootstrap":
            generated = bootstrap_trace(
                trace, processors, args.seed, block_length=args.block, horizon=length
            )
        else:
            assert args.kind in FIT_KINDS
            options = {}
            if args.kind == "diurnal":
                options = {"day_length": args.day_length, "num_phases": args.phases}
            if args.kind == "degradation":
                options = {"pm_level": args.pm_level, "fail_level": args.fail_level}
            generated = fitted_trace(
                args.kind, trace, processors, length, args.seed, **options
            )
        path = write_trace(
            generated, args.output, format=args.to, slot_duration=args.output_slot
        )
        print(
            f"sampled {generated.num_processors} x {generated.horizon} slots "
            f"({args.kind}) to {path}"
        )
        return 0
    except (ExperimentError, ReproError) as error:
        print(f"traces {args.traces_command}: {error}", file=sys.stderr)
        return 2


def _cmd_traces_stats(trace, args: argparse.Namespace) -> int:
    from repro.availability.statistics import TraceStatistics

    rows = []
    for index in range(trace.num_processors):
        stats = TraceStatistics.from_sequence(
            trace.row(index), censor_edges=args.censor_edges
        )
        rows.append(
            [
                f"P{index}",
                str(stats.length),
                f"{100 * stats.up_fraction:.1f}%",
                f"{100 * stats.reclaimed_fraction:.1f}%",
                f"{100 * stats.down_fraction:.1f}%",
                f"{stats.mean_up_interval:.1f}",
                f"{stats.mean_reclaimed_interval:.1f}",
                f"{stats.mean_down_interval:.1f}",
                str(stats.num_failures),
            ]
        )
    print(format_table(
        rows,
        headers=["proc", "slots", "up", "recl", "down",
                 "mean up", "mean recl", "mean down", "failures"],
        align_right=[False] + [True] * 8,
    ))
    # Pooled occupancy over the whole matrix (never flatten rows into one
    # sequence: row boundaries are not transitions).
    import numpy as np

    states = trace.states
    fractions = [float(np.mean(states == code)) for code in range(3)]
    print(
        f"\npooled: {trace.num_processors} processors x {trace.horizon} slots, "
        f"up {100 * fractions[0]:.1f}%, reclaimed "
        f"{100 * fractions[1]:.1f}%, down {100 * fractions[2]:.1f}%"
    )
    if args.censor_edges:
        print("(mean intervals exclude edge-censored first/last runs)")
    return 0


def _cmd_traces_fit(trace, args: argparse.Namespace) -> int:
    from repro.traces.fit import FIT_KINDS, TraceFitError, fit_model

    kinds = FIT_KINDS if args.kind == "all" else (args.kind,)
    rows = []
    for kind in kinds:
        options = {}
        if kind in ("markov", "diurnal"):
            options["prior"] = args.prior
        if kind == "diurnal":
            options["day_length"] = args.day_length
            options["num_phases"] = args.phases
        if kind == "degradation":
            options["pm_level"] = args.pm_level
            options["fail_level"] = args.fail_level
        try:
            fitted = fit_model(kind, trace, **options)
        except TraceFitError as error:
            # Structural families (correlated outage domains, wear cycles)
            # legitimately fail on recordings without that structure: report
            # the reason as a row instead of aborting the whole table.
            rows.append([kind, "-", "-", "-", "-", "-", f"not fitted: {error}"])
            continue

        def ks_text(value: float) -> str:
            return "-" if value != value else f"{value:.3f}"

        rows.append(
            [
                kind,
                f"{fitted.log_likelihood:.1f}",
                str(fitted.num_transitions),
                ks_text(fitted.ks["UP"]),
                ks_text(fitted.ks["RECLAIMED"]),
                ks_text(fitted.ks["DOWN"]),
                fitted.model.describe(),
            ]
        )
    print(format_table(
        rows,
        headers=["kind", "log-lik", "transitions", "KS up", "KS recl", "KS down", "fitted model"],
        align_right=[False, True, True, True, True, True, False],
    ))
    print()
    print("KS: Kolmogorov-Smirnov distance between the empirical interval-length")
    print("distribution of each state and the fitted sojourn law (lower is better).")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.app import ServiceConfig, serve

    return serve(ServiceConfig(
        root=args.root,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_attempts=args.max_attempts,
        poll_interval=args.poll_interval,
        trace=args.trace,
    ))


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.telemetry import format_profile, profile_trace, render_profile_html

    report = profile_trace(args.path)
    if not args.html:
        print(format_profile(report))
        return 0
    html = render_profile_html(report)
    if args.output:
        destination = Path(args.output)
    else:
        # Default next to the trace source (inside it for directories).
        source = Path(args.path)
        base = source if source.is_dir() else source.parent
        destination = base / "profile.html"
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(html, encoding="utf-8")
    print(f"profile written to {destination}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (
        "table1", "table2", "figure2", "campaign", "merge", "report", "demo",
        "serve", "profile",
    ):
        handler = {
            "campaign": _cmd_campaign_spec,
            "merge": _cmd_merge,
            "report": _cmd_report,
            "demo": _cmd_demo,
            "serve": _cmd_serve,
            "profile": _cmd_profile,
        }.get(args.command, _cmd_table)
        try:
            return handler(args)
        except ReproError as error:
            print(f"{args.command}: {error}", file=sys.stderr)
            return 2
    if args.command == "offline":
        return _cmd_offline(args)
    if args.command == "heuristics":
        return _cmd_heuristics(args)
    if args.command == "models":
        return _cmd_models(args)
    if args.command == "traces":
        return _cmd_traces(args)
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
