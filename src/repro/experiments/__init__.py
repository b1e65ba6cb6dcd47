"""Experiment harness reproducing the campaign of Section VII.

The paper's campaign sweeps ``(m, ncom, wmin)`` over
``{5, 10} × {5, 10, 20} × {1..10}``, draws 10 random scenarios per cell and
runs 10 Markov-realisation trials per scenario, for 6,000 problem instances,
each executed under all 17 heuristics.  The harness reproduces that grid (or
a configurable subset — see :class:`CampaignSpec`), computes the paper's
metrics (#fails, %diff, %wins, %wins30, stdv against the IE reference) and
rebuilds Table I, Table II and the Figure 2 series.

Beyond the paper's grid, campaigns can be *declarative*: a
:class:`CampaignSpec` (TOML/JSON file or named built-in) describes grid
ranges over ``m``/``ncom``/``wmin``/``num_processors``, the availability
substrate (Markov, semi-Markov, diurnal, trace) and the heuristic subset.
Spec campaigns run against a persistent JSONL :class:`ResultStore`, so
interrupted runs resume exactly where they stopped, and the
deterministic cell enumeration can be sharded across machines
(``--shard i/N``) and recombined with :func:`merge_stores`.
"""

from repro.experiments.figures import figure2_series, format_figure2
from repro.experiments.io import load_results, save_results
from repro.experiments.metrics import (
    HeuristicSummary,
    filter_results,
    summarize_results,
)
from repro.experiments.report import (
    PaperComparison,
    compare_with_paper,
    format_comparison,
    format_store_status,
)
from repro.experiments.runner import (
    CellProgress,
    InstanceResult,
    run_campaign_spec,
    run_instance,
)
from repro.experiments.scenarios import (
    AvailabilitySpec,
    ExperimentScenario,
    ScenarioParameters,
)
from repro.experiments.spec import (
    BUILTIN_SPEC_NAMES,
    CampaignCell,
    CampaignSpec,
    builtin_spec,
    load_spec,
)
from repro.experiments.store import ResultStore, StoreStatus, merge_stores, store_status
from repro.experiments.tables import format_spec_report

__all__ = [
    "ScenarioParameters",
    "ExperimentScenario",
    "AvailabilitySpec",
    "InstanceResult",
    "CellProgress",
    "run_instance",
    "run_campaign_spec",
    "CampaignSpec",
    "CampaignCell",
    "BUILTIN_SPEC_NAMES",
    "builtin_spec",
    "load_spec",
    "ResultStore",
    "StoreStatus",
    "merge_stores",
    "store_status",
    "HeuristicSummary",
    "summarize_results",
    "filter_results",
    "PaperComparison",
    "compare_with_paper",
    "format_comparison",
    "format_store_status",
    "format_spec_report",
    "figure2_series",
    "format_figure2",
    "save_results",
    "load_results",
]
