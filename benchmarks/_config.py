"""Shared configuration for the benchmark harness.

Every table/figure of the paper has one benchmark module that regenerates it.
Because the paper's full campaign (6,000 instances x 17 heuristics with a
10^6-slot makespan cap) is not laptop-sized, the benchmarks run a reduced
grid by default and can be scaled up through the ``REPRO_BENCH_SCALE``
environment variable:

* ``smoke``   — minimal grid, seconds (CI smoke test of the harness);
* ``bench``   — the default: same sweep structure as the paper, reduced
  repetitions; minutes;
* ``reduced`` — the ``reduced`` built-in spec (more wmin values and
  repetitions); tens of minutes;
* ``paper``   — the full paper grid (``paper-table1``); hours to days.

``smoke`` likewise runs the ``smoke`` built-in spec's grid.

Regenerated tables/figures are printed to stdout and also written to
``benchmarks/results/`` so they can be compared against the paper's numbers
(see EXPERIMENTS.md).
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.spec import CampaignSpec, builtin_spec

RESULTS_DIR = Path(__file__).parent / "results"

#: Default benchmark grid: keeps the (m, ncom, wmin) sweep structure of the
#: paper but with one scenario/trial per cell and a tighter makespan cap.
BENCH_SPEC = CampaignSpec(
    ncom_values=(5, 20),
    wmin_values=(1, 4, 7),
    scenarios_per_cell=2,
    trials_per_scenario=1,
    iterations=10,
    makespan_cap=60_000,
)

#: An even smaller grid used by the heavier m = 10 benchmarks.
BENCH_SPEC_M10 = replace(BENCH_SPEC, scenarios_per_cell=1, makespan_cap=40_000)

#: ``REPRO_BENCH_SCALE`` choices other than ``bench`` -> the built-in spec
#: whose grid they run.
_BUILTIN_GRIDS = {"smoke": "smoke", "reduced": "reduced", "paper": "paper-table1"}


def campaign_spec(default: CampaignSpec, **fields) -> CampaignSpec:
    """The benchmark's campaign: the grid ``REPRO_BENCH_SCALE`` selects
    (*default* for ``bench``) with *fields* (name, m, heuristics, ...) applied."""
    choice = os.environ.get("REPRO_BENCH_SCALE", "bench").lower()
    if choice == "bench":
        grid = default
    elif choice in _BUILTIN_GRIDS:
        grid = builtin_spec(_BUILTIN_GRIDS[choice])
    else:
        raise ValueError(
            f"unknown REPRO_BENCH_SCALE={choice!r}; expected smoke|bench|reduced|paper"
        )
    return replace(grid, **fields)


def instances(spec: CampaignSpec) -> int:
    """Problem instances (scenario x trial pairs) each heuristic runs."""
    return spec.num_cells() // len(spec.heuristics)


def write_result(name: str, text: str) -> Path:
    """Persist a regenerated table/figure under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR
