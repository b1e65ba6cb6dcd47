"""Benchmark regenerating **Figure 1** of the paper (worked iteration example).

Figure 1 is qualitative: it illustrates one iteration on a 5-processor
platform (w_i = i, ncom = 2, Tprog = 2, Tdata = 1, m = 5) with reclamations
suspending the execution.  This benchmark replays a scripted availability
trace reproducing the same phenomena (bandwidth-limited communication phase,
suspension during RECLAIMED slots, synchronised computation) and renders the
Gantt chart; it also measures the engine cost of such a micro-instance.
"""

from __future__ import annotations
import pytest

from _config import write_result
from repro.application import Application, Configuration
from repro.availability import AvailabilityTrace, MarkovAvailabilityModel
from repro.platform import Platform, Processor
from repro.scheduling.base import Observation, Scheduler
from repro.simulation import SimulationEngine
from repro.simulation.gantt import activity_from_events, render_gantt


class Figure1Scheduler(Scheduler):
    """Enrols P2/P3/P4 with the allocation of the paper's worked example."""

    name = "FIGURE1"

    def select(self, observation: Observation) -> Configuration:
        target = Configuration({1: 2, 2: 2, 3: 1})
        if all(observation.is_up(worker) for worker in target.workers):
            return target
        if not observation.failure and not observation.current_configuration.is_empty():
            return observation.current_configuration
        return Configuration.empty()


def build_setup():
    processors = [
        Processor(speed=i, capacity=5, availability=MarkovAvailabilityModel.always_up())
        for i in range(1, 6)
    ]
    platform = Platform(processors, ncom=2, tprog=2, tdata=1)
    application = Application(tasks_per_iteration=5, iterations=1)
    # Scripted availability: P3 reclaimed during part of the communication
    # phase, P2 then P3 reclaimed during the computation phase (as in Fig. 1).
    rows = [
        "uuuuuuuuuuuuuuuuuuuu",
        "uuuuuuuuuurruuuuuuuu",
        "uuurruuuuuuuruuuuuuu",
        "uuuuuuuuuuuuuuuuuuuu",
        "uuuuuuuuuuuuuuuuuuuu",
    ]
    trace = AvailabilityTrace(rows)
    return platform, application, trace


@pytest.mark.benchmark(group="figure1")
def test_figure1_worked_example(benchmark):
    platform, application, trace = build_setup()

    def run():
        engine = SimulationEngine(
            platform, application, Figure1Scheduler(), trace=trace, max_slots=20,
            record_events=True,
        )
        return engine, engine.run()

    engine, result = benchmark.pedantic(run, rounds=3, iterations=1)

    assert result.success
    activity = activity_from_events(engine.events, platform.num_processors, result.makespan)
    gantt = render_gantt(activity, trace.block(0, result.makespan))
    report = (
        "Figure 1 reproduction — one iteration with m = 5 tasks on 5 processors\n"
        f"(w_i = i, ncom = 2, Tprog = 2, Tdata = 1); makespan = {result.makespan} slots,\n"
        f"{result.communication_slots} communication slots, {result.computation_slots} computation slots, "
        f"{result.idle_slots} suspended slots.\n\n" + gantt
    )
    print("\n" + report)
    write_result("figure1.txt", report)

    # Reclamations must have suspended the execution (idle slots > 0) without
    # losing any work (single iteration, no restart).
    assert result.idle_slots > 0
    assert result.total_restarts == 0
