"""Self-contained HTML dashboard over a campaign's result store.

``render_html_report`` turns a list of :class:`InstanceResult` (plus the
campaign's spec) into one standalone HTML document — inline CSS, hand-rolled
inline SVG, no external assets or scripts — suitable for a CI artifact:

* a per-slice summary table (the Table-I metrics of ``format_spec_report``);
* Monte Carlo band plots of every sampled metric series, one chart per
  (grid cell, series) with all heuristics of the cell overlaid
  (median line + shaded inter-quantile band across repetitions);
* a Gantt drill-down: the first slots of a handful of stored runs,
  re-simulated deterministically from their seeds with the event log on and
  rendered through :func:`repro.simulation.gantt.render_gantt`.

Only results that carry a ``metrics`` payload contribute band plots; a
store recorded without the collector still gets the summary tables and the
Gantt section.
"""

from __future__ import annotations

import html as html_escape
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ExperimentError, ReproError
from repro.experiments.metrics import (
    DEFAULT_BAND_QUANTILES,
    MetricBands,
    aggregate_metric_bands,
)
from repro.experiments.runner import InstanceResult
from repro.experiments.spec import CampaignSpec
from repro.experiments.tables import format_spec_report

__all__ = ["render_html_report"]

#: Charts are thinned to at most this many points per curve.
_MAX_POINTS = 400

#: Slots rendered (and re-simulated) per Gantt chart.
_GANTT_WINDOW = 120

#: Qualitative palette (colorblind-safe Okabe-Ito order).
_PALETTE = (
    "#0072B2",
    "#D55E00",
    "#009E73",
    "#CC79A7",
    "#E69F00",
    "#56B4E9",
    "#F0E442",
    "#000000",
)

_CSS = """
body { font-family: -apple-system, "Segoe UI", Roboto, sans-serif;
       margin: 2rem auto; max-width: 1100px; color: #1a1a2e; }
h1 { border-bottom: 2px solid #0072B2; padding-bottom: .3rem; }
h2 { margin-top: 2.2rem; border-bottom: 1px solid #ccc; }
h3 { margin-bottom: .4rem; }
pre { background: #f6f8fa; padding: .8rem; overflow-x: auto;
      font-size: 12px; line-height: 1.25; border-radius: 6px; }
.meta { color: #555; font-size: .9rem; }
.charts { display: flex; flex-wrap: wrap; gap: 14px; }
.chart { border: 1px solid #e0e0e0; border-radius: 6px; padding: 6px; }
.chart .title { font-size: .8rem; font-weight: 600; margin: 0 0 2px 4px; }
.legend { font-size: .75rem; margin: 2px 0 8px 4px; }
.legend span { margin-right: 10px; }
.swatch { display: inline-block; width: 10px; height: 10px;
          border-radius: 2px; margin-right: 3px; }
.note { color: #777; font-style: italic; }
"""


def _esc(text: object) -> str:
    return html_escape.escape(str(text))


def _thin(values: Sequence[float], limit: int = _MAX_POINTS) -> List[float]:
    if len(values) <= limit:
        return list(values)
    step = -(-len(values) // limit)
    thinned = list(values[::step])
    if (len(values) - 1) % step:
        thinned.append(values[-1])
    return thinned


def _svg_chart(
    curves: Sequence[Tuple[str, str, List[float], List[float], List[float]]],
    *,
    stride: int,
    width: int = 420,
    height: int = 150,
) -> str:
    """One SVG line chart: per-curve shaded lo→hi band plus median line.

    *curves* holds ``(label, color, lo, median, hi)`` per heuristic; the x
    axis is the slot index (grid point × stride).
    """
    pad_left, pad_right, pad_top, pad_bottom = 44, 8, 6, 18
    plot_w = width - pad_left - pad_right
    plot_h = height - pad_top - pad_bottom
    max_len = max(len(median) for _, _, _, median, _ in curves)
    x_max = max(1, (max_len - 1) * stride)
    y_values = [v for _, _, lo, med, hi in curves for v in (*lo, *med, *hi)]
    y_min = min(y_values + [0.0])
    y_max = max(y_values + [1.0])
    y_span = (y_max - y_min) or 1.0

    def x_at(index: int, count: int) -> float:
        slot = index * (x_max / max(1, count - 1)) if count > 1 else 0
        return pad_left + plot_w * (slot / x_max)

    def y_at(value: float) -> float:
        return pad_top + plot_h * (1.0 - (value - y_min) / y_span)

    def points(values: Sequence[float]) -> str:
        count = len(values)
        return " ".join(
            f"{x_at(i, count):.1f},{y_at(v):.1f}" for i, v in enumerate(values)
        )

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" '
        'xmlns="http://www.w3.org/2000/svg">'
    ]
    axis = "#999"
    parts.append(
        f'<line x1="{pad_left}" y1="{pad_top}" x2="{pad_left}" '
        f'y2="{height - pad_bottom}" stroke="{axis}"/>'
        f'<line x1="{pad_left}" y1="{height - pad_bottom}" x2="{width - pad_right}" '
        f'y2="{height - pad_bottom}" stroke="{axis}"/>'
    )
    label_style = f'font-size="9" fill="{axis}"'
    parts.append(
        f'<text x="{pad_left - 4}" y="{pad_top + 8}" text-anchor="end" '
        f"{label_style}>{y_max:g}</text>"
        f'<text x="{pad_left - 4}" y="{height - pad_bottom}" text-anchor="end" '
        f"{label_style}>{y_min:g}</text>"
        f'<text x="{pad_left}" y="{height - 4}" {label_style}>0</text>'
        f'<text x="{width - pad_right}" y="{height - 4}" text-anchor="end" '
        f"{label_style}>{x_max} slots</text>"
    )
    for _, color, lo, median, hi in curves:
        if lo and hi and any(a != b for a, b in zip(lo, hi)):
            band = points(lo) + " " + " ".join(
                f"{x_at(i, len(hi)):.1f},{y_at(v):.1f}"
                for i, v in reversed(list(enumerate(hi)))
            )
            parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15"/>')
        parts.append(
            f'<polyline points="{points(median)}" fill="none" '
            f'stroke="{color}" stroke-width="1.4"/>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _legend(labels_colors: Sequence[Tuple[str, str]]) -> str:
    spans = "".join(
        f'<span><i class="swatch" style="background:{color}"></i>{_esc(label)}</span>'
        for label, color in labels_colors
    )
    return f'<div class="legend">{spans}</div>'


def _band_sections(bands: List[MetricBands]) -> List[str]:
    if not bands:
        return [
            '<p class="note">No stored runs carry metric series — re-run the '
            "campaign with <code>--collect-metrics</code> (or set "
            "<code>collect_metrics = true</code> in the spec) to populate "
            "band plots.</p>"
        ]
    by_cell: Dict[Tuple, List[MetricBands]] = {}
    for band in bands:
        by_cell.setdefault((band.m, band.ncom, band.wmin, band.num_processors), []).append(band)
    sections: List[str] = []
    for cell_key in sorted(by_cell):
        cell_bands = by_cell[cell_key]
        colors = {
            band.heuristic: _PALETTE[i % len(_PALETTE)]
            for i, band in enumerate(cell_bands)
        }
        reps = ", ".join(
            f"{band.heuristic}: {band.num_runs} runs" for band in cell_bands
        )
        quantiles = cell_bands[0].quantiles
        lo_q, mid_q, hi_q = quantiles[0], quantiles[len(quantiles) // 2], quantiles[-1]
        sections.append(
            f"<h3>{_esc(cell_bands[0].cell_label())}</h3>"
            f'<p class="meta">band: q{lo_q:g}–q{hi_q:g} around the q{mid_q:g} '
            f"median across repetitions ({_esc(reps)})</p>"
            + _legend([(h, c) for h, c in colors.items()])
        )
        charts = []
        for name in cell_bands[0].series:
            curves = []
            for band in cell_bands:
                levels = band.series[name]
                curves.append(
                    (
                        band.heuristic,
                        colors[band.heuristic],
                        _thin(levels[lo_q]),
                        _thin(levels[mid_q]),
                        _thin(levels[hi_q]),
                    )
                )
            chart = _svg_chart(curves, stride=cell_bands[0].stride)
            charts.append(
                f'<div class="chart"><p class="title">{_esc(name)}</p>{chart}</div>'
            )
        sections.append('<div class="charts">' + "".join(charts) + "</div>")
    return sections


def _gantt_sections(
    results: Sequence[InstanceResult],
    spec: Optional[CampaignSpec],
    gantt_runs: int,
) -> List[str]:
    if gantt_runs <= 0:
        return []
    if spec is None:
        return ['<p class="note">No spec available — Gantt drill-down skipped.</p>']
    # Deterministic pick: the first successful run of each heuristic, in
    # store order, up to the requested count.
    chosen: List[InstanceResult] = []
    seen_heuristics = set()
    for result in results:
        if result.success and result.heuristic not in seen_heuristics:
            chosen.append(result)
            seen_heuristics.add(result.heuristic)
            if len(chosen) >= gantt_runs:
                break
    if not chosen:
        return ['<p class="note">No successful runs to drill into yet.</p>']

    from repro.analysis.cache import AnalysisContext
    from repro.analysis.group import ExpectationMode
    from repro.scheduling.registry import create_scheduler
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.gantt import activity_from_events, render_gantt

    scenario_index = {
        (
            scenario.params.m,
            scenario.params.ncom,
            scenario.params.wmin,
            scenario.params.num_processors,
            scenario.scenario_index,
        ): scenario
        for scenario in spec.scenarios()
    }
    sections: List[str] = []
    for result in chosen:
        key = (result.m, result.ncom, result.wmin, result.num_processors, result.scenario_index)
        scenario = scenario_index.get(key)
        if scenario is None:
            continue
        try:
            # Mirror runner._run_cells (platform, analysis mode, trial seed:
            # the engine samples the trial's realisation from it) so the
            # re-simulated slots ARE the stored run's: the slot-by-slot path
            # never looks ahead, so stopping the run at the drawn window
            # changes none of them.
            platform = scenario.build_platform()
            seed = scenario.trial_seed(result.trial_index)
            window = min(_GANTT_WINDOW, result.makespan)
            engine = SimulationEngine(
                platform,
                scenario.build_application(iterations=spec.iterations),
                create_scheduler(result.heuristic),
                seed=seed,
                max_slots=window,
                analysis=AnalysisContext(platform, mode=ExpectationMode(spec.estimator)),
                record_events=True,
            )
            engine.run()
            activity = activity_from_events(engine.events, platform.num_processors, window)
            text = render_gantt(activity, engine.trace.block(0, window))
        except ReproError as error:
            sections.append(
                f'<p class="note">Could not re-simulate {_esc(result.heuristic)} '
                f"on {_esc(scenario.label())}: {_esc(error)}</p>"
            )
            continue
        sections.append(
            f"<h3>{_esc(result.heuristic)} — {_esc(scenario.label())}, trial "
            f"{result.trial_index} (makespan {result.makespan}, first "
            f"{window} slots)</h3>"
            f"<pre>{_esc(text)}</pre>"
        )
    return sections


def render_html_report(
    results: Sequence[InstanceResult],
    spec: Optional[CampaignSpec] = None,
    *,
    title: Optional[str] = None,
    quantiles: Sequence[float] = DEFAULT_BAND_QUANTILES,
    gantt_runs: int = 2,
) -> str:
    """Render a campaign's results as one self-contained HTML document."""
    name = title or (spec.name if spec is not None else "campaign")
    header = [f"<h1>Campaign report — {_esc(name)}</h1>"]
    meta = [f"{len(results)} completed cells"]
    if spec is not None:
        meta.append(f"spec hash {spec.spec_hash()[:12]}")
        meta.append(f"{spec.num_cells()} cells total")
        meta.append(f"heuristics: {', '.join(spec.heuristics)}")
    with_series = sum(1 for result in results if result.metrics)
    meta.append(f"{with_series} cells with metric series")
    header.append(f'<p class="meta">{_esc(" · ".join(meta))}</p>')

    summary: List[str] = ["<h2>Summary tables</h2>"]
    if spec is not None:
        try:
            summary.append(f"<pre>{_esc(format_spec_report(list(results), spec))}</pre>")
        except ExperimentError as error:
            summary.append(
                f'<p class="note">Summary tables unavailable: {_esc(error)}</p>'
            )
    else:
        summary.append('<p class="note">No spec available — tables skipped.</p>')

    bands = aggregate_metric_bands(list(results), quantiles=quantiles)
    body = (
        header
        + summary
        + ["<h2>Monte Carlo bands</h2>"]
        + _band_sections(bands)
        + ["<h2>Gantt drill-down</h2>"]
        + _gantt_sections(results, spec, gantt_runs)
    )
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{_esc(name)} — campaign report</title>"
        f"<style>{_CSS}</style></head>\n<body>\n"
        + "\n".join(body)
        + "\n</body></html>\n"
    )
