"""The paper's comparison metrics (#fails, %diff, %wins, %wins30, stdv).

All metrics compare a heuristic ``H`` against the reference heuristic ``IE``
(the most robust one in the paper), exactly as in Section VII-A:

* **#fails** — number of (scenario, trial) instances on which ``H`` hit the
  makespan cap;
* **%diff** — for every scenario, ``H``'s makespan averaged over its
  successful trials is compared to ``IE``'s average on the same scenario via
  ``(makespan_H − makespan_IE) / min(makespan_H, makespan_IE)``; %diff is the
  mean of this relative difference over scenarios, in percent (negative
  means ``H`` beats the reference on average);
* **%wins** — fraction of trials on which ``H``'s makespan is smaller than or
  equal to ``IE``'s (a failed ``H`` trial counts as a loss; trials where the
  reference itself failed are skipped);
* **%wins30** — fraction of trials on which ``H``'s makespan does not exceed
  ``IE``'s by more than 30 %;
* **stdv** — standard deviation over scenarios of the per-scenario relative
  difference (not in percent, matching the paper's table scale).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.components import ComponentError
from repro.exceptions import ExperimentError
from repro.experiments.runner import InstanceResult
from repro.scheduling.registry import canonical_heuristic

__all__ = [
    "HeuristicSummary",
    "MetricBands",
    "aggregate_metric_bands",
    "summarize_results",
    "relative_difference",
    "filter_results",
]

#: The reference heuristic of the paper's tables.
DEFAULT_REFERENCE = "IE"


def relative_difference(makespan: float, reference: float) -> float:
    """``(makespan − reference) / min(makespan, reference)`` (the paper's %diff core)."""
    if makespan <= 0 or reference <= 0:
        raise ValueError("makespans must be positive")
    return (makespan - reference) / min(makespan, reference)


@dataclass(frozen=True)
class HeuristicSummary:
    """One row of Table I / Table II."""

    heuristic: str
    fails: int
    pct_diff: Optional[float]
    pct_wins: Optional[float]
    pct_wins30: Optional[float]
    stdv: Optional[float]
    num_scenarios: int
    num_trials: int

    def as_row(self) -> list:
        return [
            self.heuristic,
            self.fails,
            None if self.pct_diff is None else round(self.pct_diff, 2),
            None if self.pct_wins is None else round(self.pct_wins, 2),
            None if self.pct_wins30 is None else round(self.pct_wins30, 2),
            None if self.stdv is None else round(self.stdv, 2),
        ]


def filter_results(
    results: Iterable[InstanceResult],
    *,
    m: Optional[int] = None,
    ncom: Optional[int] = None,
    wmin: Optional[int] = None,
    num_processors: Optional[int] = None,
    heuristics: Optional[Sequence[str]] = None,
) -> List[InstanceResult]:
    """Select one slice of a (possibly multi-``m``, multi-platform) result set.

    Spec-driven campaigns sweep grids wider than a single paper table; the
    comparison metrics are only meaningful within one ``(m, num_processors)``
    slice (the legacy scenario keys do not separate platform sizes), so
    reports filter before summarising.
    """
    wanted: Optional[set] = None
    if heuristics is not None:
        # Canonicalize through the registry so any spelling of a
        # (possibly parameterized) heuristic matches the stored results;
        # unregistered names fall back to plain upper-casing and simply
        # select nothing.
        wanted = set()
        for name in heuristics:
            try:
                wanted.add(canonical_heuristic(name))
            except ComponentError:
                wanted.add(str(name).upper())
    selected: List[InstanceResult] = []
    for result in results:
        if m is not None and result.m != m:
            continue
        if ncom is not None and result.ncom != ncom:
            continue
        if wmin is not None and result.wmin != wmin:
            continue
        if num_processors is not None and result.num_processors != num_processors:
            continue
        if wanted is not None and result.heuristic not in wanted:
            continue
        selected.append(result)
    return selected


def _group_by_heuristic(results: Iterable[InstanceResult]) -> Dict[str, List[InstanceResult]]:
    grouped: Dict[str, List[InstanceResult]] = defaultdict(list)
    for result in results:
        grouped[result.heuristic].append(result)
    return grouped


def _index_by_instance(results: Iterable[InstanceResult]) -> Dict[Tuple, InstanceResult]:
    return {result.instance_key(): result for result in results}


def summarize_results(
    results: Sequence[InstanceResult],
    *,
    reference: str = DEFAULT_REFERENCE,
    wins_margin: float = 0.30,
) -> List[HeuristicSummary]:
    """Compute the Table I/II rows for every heuristic present in *results*.

    Rows are sorted best-first (ascending %diff, reference pinned where its
    %diff of 0.0 lands, heuristics with no comparable scenarios last).
    """
    grouped = _group_by_heuristic(results)
    if reference not in grouped:
        raise ExperimentError(
            f"reference heuristic {reference!r} not present in the results "
            f"(available: {sorted(grouped)})"
        )
    reference_by_instance = _index_by_instance(grouped[reference])

    summaries: List[HeuristicSummary] = []
    for heuristic, entries in grouped.items():
        fails = sum(1 for entry in entries if not entry.success)
        num_trials = len(entries)

        # --- per-scenario mean makespans (successful trials only) ----------
        per_scenario: Dict[Tuple, Dict[str, List[float]]] = defaultdict(
            lambda: {"h": [], "ref": []}
        )
        wins = 0
        wins30 = 0
        comparable_trials = 0
        for entry in entries:
            ref_entry = reference_by_instance.get(entry.instance_key())
            if ref_entry is None or not ref_entry.success:
                continue  # the reference itself failed: skip the trial, as the paper does
            comparable_trials += 1
            if entry.success and entry.makespan is not None:
                per_scenario[entry.scenario_key()]["h"].append(float(entry.makespan))
                per_scenario[entry.scenario_key()]["ref"].append(float(ref_entry.makespan))
                if entry.makespan <= ref_entry.makespan:
                    wins += 1
                if entry.makespan <= (1.0 + wins_margin) * ref_entry.makespan:
                    wins30 += 1
            # A failed heuristic trial counts as a loss for both win metrics.

        scenario_diffs: List[float] = []
        for data in per_scenario.values():
            if not data["h"] or not data["ref"]:
                continue
            mean_h = float(np.mean(data["h"]))
            mean_ref = float(np.mean(data["ref"]))
            scenario_diffs.append(relative_difference(mean_h, mean_ref))

        if scenario_diffs:
            pct_diff = 100.0 * float(np.mean(scenario_diffs))
            stdv = float(np.std(scenario_diffs))
        else:
            pct_diff = None
            stdv = None
        if comparable_trials > 0:
            pct_wins = 100.0 * wins / comparable_trials
            pct_wins30 = 100.0 * wins30 / comparable_trials
        else:
            pct_wins = None
            pct_wins30 = None

        summaries.append(
            HeuristicSummary(
                heuristic=heuristic,
                fails=fails,
                pct_diff=pct_diff,
                pct_wins=pct_wins,
                pct_wins30=pct_wins30,
                stdv=stdv,
                num_scenarios=len(per_scenario),
                num_trials=num_trials,
            )
        )

    summaries.sort(
        key=lambda s: (s.pct_diff is None, s.pct_diff if s.pct_diff is not None else math.inf)
    )
    return summaries


# ----------------------------------------------------------------------
# Monte Carlo confidence bands over sampled per-slot series
# ----------------------------------------------------------------------
#: Default band quantiles: an 80% interval around the median.
DEFAULT_BAND_QUANTILES = (0.1, 0.5, 0.9)


@dataclass(frozen=True)
class MetricBands:
    """Per-slot quantile bands of one ``(grid cell, heuristic)`` group.

    Aggregates the :class:`~repro.metrics.collector.RunMetrics` series of
    every repetition (scenario × trial) of one grid cell run under one
    heuristic.  ``series[name][q]`` is the per-grid-point *q*-quantile of
    metric ``name`` across repetitions; runs end at different slots, so
    shorter series are NaN-padded and each grid point aggregates only the
    runs still alive there (``alive`` counts them).  ``makespan_quantiles``
    holds the same quantiles of the successful repetitions' makespans.
    """

    m: int
    ncom: int
    wmin: int
    num_processors: int
    heuristic: str
    stride: int
    num_runs: int
    quantiles: Tuple[float, ...]
    #: metric name -> quantile -> per-grid-point values.
    series: Dict[str, Dict[float, List[float]]]
    #: Number of runs still alive (not yet ended) at each grid point.
    alive: List[int]
    makespan_quantiles: Dict[float, Optional[float]]
    successes: int
    failures: int

    def slots(self) -> List[int]:
        """The sampled slot indices (shared x axis of every band)."""
        return [index * self.stride for index in range(len(self.alive))]

    def cell_label(self) -> str:
        return (
            f"m={self.m} ncom={self.ncom} wmin={self.wmin} "
            f"p={self.num_processors}"
        )


def aggregate_metric_bands(
    results: Sequence[InstanceResult],
    *,
    quantiles: Sequence[float] = DEFAULT_BAND_QUANTILES,
) -> List[MetricBands]:
    """Aggregate per-run metric series into Monte Carlo bands.

    Results without a ``metrics`` payload are skipped (a store may mix runs
    recorded with and without the collector).  Groups are the report's
    natural unit: one ``(m, ncom, wmin, num_processors, heuristic)`` cell
    aggregated over its scenario × trial repetitions.  All series of a
    group must share one sampling stride; mixing strides raises
    :class:`~repro.exceptions.ExperimentError`.
    """
    quantiles = tuple(float(q) for q in quantiles)
    if not quantiles or any(not (0.0 <= q <= 1.0) for q in quantiles):
        raise ExperimentError(f"band quantiles must lie in [0, 1], got {quantiles}")
    groups: Dict[Tuple, List[InstanceResult]] = defaultdict(list)
    for result in results:
        if result.metrics:
            key = (result.m, result.ncom, result.wmin, result.num_processors, result.heuristic)
            groups[key].append(result)

    bands: List[MetricBands] = []
    for key in sorted(groups):
        entries = groups[key]
        strides = {int(entry.metrics["stride"]) for entry in entries}
        if len(strides) != 1:
            raise ExperimentError(
                f"cannot band cell {key}: series sampled at mixed strides {sorted(strides)}"
            )
        stride = strides.pop()
        names = list(entries[0].metrics["series"])
        lengths = [
            max(len(values) for values in entry.metrics["series"].values())
            for entry in entries
        ]
        width = max(lengths)
        series: Dict[str, Dict[float, List[float]]] = {}
        for name in names:
            stacked = np.full((len(entries), width), np.nan)
            for row, entry in enumerate(entries):
                values = entry.metrics["series"].get(name, [])
                stacked[row, : len(values)] = values
            levels = np.nanquantile(stacked, quantiles, axis=0)
            series[name] = {
                q: [float(v) for v in levels[i]] for i, q in enumerate(quantiles)
            }
        alive = np.zeros(width, dtype=np.int64)
        for length in lengths:
            alive[:length] += 1
        makespans = [
            float(entry.makespan)
            for entry in entries
            if entry.success and entry.makespan is not None
        ]
        makespan_quantiles: Dict[float, Optional[float]] = {
            q: (float(np.quantile(makespans, q)) if makespans else None)
            for q in quantiles
        }
        bands.append(
            MetricBands(
                m=key[0],
                ncom=key[1],
                wmin=key[2],
                num_processors=key[3],
                heuristic=key[4],
                stride=stride,
                num_runs=len(entries),
                quantiles=quantiles,
                series=series,
                alive=[int(v) for v in alive],
                makespan_quantiles=makespan_quantiles,
                successes=len(makespans),
                failures=len(entries) - len(makespans),
            )
        )
    return bands
