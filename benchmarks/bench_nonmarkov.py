"""Ablation B (paper §VII-B future work): Markov heuristics on non-Markov availability.

The paper's conclusion proposes to "build a flawed Markov model based on
real-world processor availability traces, and investigate how 'wrong' the
Markov heuristics behave" when the true availability process is not
Markovian.  This benchmark implements that robustness experiment with the
semi-Markov (Weibull / log-normal holding time) substrate:

* processors follow :class:`SemiMarkovAvailabilityModel` (heavy-tailed UP
  intervals), but
* the heuristics only see the fitted geometric-sojourn Markov approximation
  (``markov_approximation()``), exactly the "flawed model" of the paper.

The question answered: does the ranking IE < Y-IE (and the huge RANDOM gap)
survive the model mismatch?
"""

from __future__ import annotations

import pytest

from _config import write_result
from repro.analysis.cache import AnalysisContext
from repro.application import Application
from repro.availability import SemiMarkovAvailabilityModel
from repro.platform import Platform, Processor
from repro.scheduling import create_scheduler
from repro.simulation import SimulationEngine
from repro.utils.rng import as_generator
from repro.utils.tables import format_table

HEURISTICS = ("RANDOM", "IE", "IAY", "Y-IE", "P-IE")
NUM_INSTANCES = 3


def build_platform(seed: int) -> Platform:
    """A 12-processor platform with heavy-tailed (non-Markov) availability."""
    rng = as_generator(seed)
    processors = []
    for _ in range(12):
        model = SemiMarkovAvailabilityModel.desktop_grid(
            up_shape=float(rng.uniform(0.5, 0.8)),
            mean_up=float(rng.uniform(25.0, 60.0)),
            mean_reclaimed=float(rng.uniform(2.0, 6.0)),
            mean_down=float(rng.uniform(10.0, 30.0)),
            reclaim_fraction=float(rng.uniform(0.6, 0.85)),
        )
        processors.append(
            Processor(speed=int(rng.integers(1, 8)), capacity=5, availability=model)
        )
    return Platform(processors, ncom=4, tprog=5, tdata=1)


def run_nonmarkov_campaign():
    rows = []
    totals = {name: 0.0 for name in HEURISTICS}
    fails = {name: 0 for name in HEURISTICS}
    for instance in range(NUM_INSTANCES):
        platform = build_platform(seed=100 + instance)
        application = Application(tasks_per_iteration=5, iterations=10)
        analysis = AnalysisContext(platform)  # fitted ("flawed") Markov view
        for name in HEURISTICS:
            engine = SimulationEngine(
                platform,
                application,
                create_scheduler(name),
                seed=200 + instance,
                max_slots=40_000,
                analysis=analysis,
            )
            result = engine.run()
            if result.success:
                totals[name] += result.makespan
            else:
                fails[name] += 1
                totals[name] += result.effective_makespan()
            rows.append([instance, name, result.makespan, result.success])
    return rows, totals, fails


@pytest.mark.benchmark(group="nonmarkov")
def test_markov_heuristics_on_semi_markov_availability(benchmark):
    rows, totals, fails = benchmark.pedantic(run_nonmarkov_campaign, rounds=1, iterations=1)

    summary_rows = [
        [name, fails[name], round(totals[name] / NUM_INSTANCES, 1)] for name in HEURISTICS
    ]
    text = (
        "Non-Markov robustness (Weibull/log-normal availability, heuristics use "
        "the fitted Markov model):\n"
        + format_table(summary_rows, headers=["Heuristic", "#fails", "mean makespan"])
        + "\n\nPer-instance results:\n"
        + format_table(rows, headers=["instance", "heuristic", "makespan", "success"])
    )
    print("\n" + text)
    write_result("nonmarkov_robustness.txt", text)

    # The informed heuristics should remain ahead of RANDOM despite the model
    # mismatch (the paper's conjecture for this future-work experiment).
    informed_best = min(totals[name] for name in HEURISTICS if name != "RANDOM")
    assert informed_best <= totals["RANDOM"]
