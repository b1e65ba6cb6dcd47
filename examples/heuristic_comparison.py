#!/usr/bin/env python
"""Run a miniature version of the paper's experimental campaign (Section VII).

The paper evaluates its seventeen heuristics on a grid of synthetic scenarios
``(m, ncom, wmin)`` and reports, for each heuristic, the relative difference
to the IE reference (%diff), the fraction of trials won (%wins / %wins30) and
the number of failed instances.  This example runs a small slice of that
campaign (one value of m, a couple of grid cells, a handful of trials) and
prints the same table — a laptop-sized preview of Table I.

Run with:  python examples/heuristic_comparison.py          (about a minute)
      or:  python examples/heuristic_comparison.py --full    (all 17 heuristics)
"""

from __future__ import annotations

import argparse

from repro import summarize_results
from repro.experiments import CampaignSpec, run_campaign_spec
from repro.experiments.tables import format_summaries
from repro.scheduling import ALL_HEURISTICS

#: A representative subset: the baseline, the reference, the best passive and
#: the two headline proactive heuristics.
DEFAULT_HEURISTICS = ("RANDOM", "IE", "IAY", "Y-IE", "P-IE", "E-IAY")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="evaluate all seventeen heuristics (slower)")
    parser.add_argument("--m", type=int, default=5, help="tasks per iteration (default 5)")
    parser.add_argument("--trials", type=int, default=2, help="trials per scenario")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = parser.parse_args()

    heuristics = ALL_HEURISTICS if args.full else DEFAULT_HEURISTICS
    spec = CampaignSpec(
        name="example-comparison",
        m_values=(args.m,),
        ncom_values=(5, 20),
        wmin_values=(1, 3),
        heuristics=heuristics,
        scenarios_per_cell=2,
        trials_per_scenario=args.trials,
        iterations=10,
        makespan_cap=60_000,
    )

    print(f"Campaign: m = {args.m}, {spec.num_cells() // len(heuristics)} problem "
          f"instances, {len(heuristics)} heuristics")
    results = run_campaign_spec(
        spec,
        n_jobs=args.jobs,
        cell_progress=lambda event: print(f"  cell {event.done}/{event.total} done", flush=True),
    )

    summaries = summarize_results(results)
    print()
    print(format_summaries(
        summaries,
        title=f"Mini Table I (m = {args.m})",
    ))
    print(
        "\nReading the table: negative %diff means the heuristic beats the IE\n"
        "reference on average; the paper's full campaign (Table I) finds Y-IE,\n"
        "P-IE and E-IAY ahead of IE and RANDOM more than 20x slower."
    )


if __name__ == "__main__":
    main()
