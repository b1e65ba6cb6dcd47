#!/usr/bin/env python
"""Walk through the paper's Figure 1 worked example, with an ASCII Gantt chart.

Figure 1 of the paper illustrates a single iteration with m = 5 tasks on a
5-processor platform (w_i = i), ncom = 2, Tprog = 2, Tdata = 1: two tasks on
P2, two on P3, one on P4.  The bandwidth constraint keeps P4 idle at first,
a reclamation suspends P3 during the communication phase, and two more
reclamations suspend the synchronised computation phase.

This script replays the same scenario on a scripted availability trace and
renders the execution in the same visual language as the figure
(P = program transfer, D = data transfer, C = computation, I = idle,
· = reclaimed, # = down).

Run with:  python examples/figure1_walkthrough.py
"""

from __future__ import annotations

from repro import Application, AvailabilityTrace, Configuration, MarkovAvailabilityModel
from repro.platform import Platform, Processor
from repro.scheduling.base import Observation, Scheduler
from repro.simulation import SimulationEngine
from repro.simulation.gantt import activity_from_events, render_gantt


class Figure1Scheduler(Scheduler):
    """Always requests the allocation of the worked example (P2:2, P3:2, P4:1)."""

    name = "FIGURE1"

    def select(self, observation: Observation) -> Configuration:
        target = Configuration({1: 2, 2: 2, 3: 1})
        if all(observation.is_up(worker) for worker in target.workers):
            return target
        if not observation.failure and not observation.current_configuration.is_empty():
            return observation.current_configuration
        return Configuration.empty()


def main() -> None:
    processors = [
        Processor(speed=i, capacity=5, availability=MarkovAvailabilityModel.always_up(),
                  name=f"P{i}")
        for i in range(1, 6)
    ]
    platform = Platform(processors, ncom=2, tprog=2, tdata=1)
    application = Application(tasks_per_iteration=5, iterations=1, name="figure-1")

    # Scripted availability: P3 is reclaimed during the communication phase,
    # then P2 and P3 are reclaimed (in turn) during the computation phase.
    trace = AvailabilityTrace([
        "uuuuuuuuuuuuuuuuuuuu",   # P1 (never enrolled: not needed)
        "uuuuuuuuuurruuuuuuuu",   # P2 reclaimed during the computation phase
        "uuurruuuuuuuruuuuuuu",   # P3 reclaimed during communication and computation
        "uuuuuuuuuuuuuuuuuuuu",   # P4
        "uuuuuuuuuuuuuuuuuuuu",   # P5 (never enrolled)
    ])

    engine = SimulationEngine(
        platform, application, Figure1Scheduler(), trace=trace, max_slots=20,
        record_events=True,
    )
    result = engine.run()

    print("One iteration of the Figure-1 example")
    print("-------------------------------------")
    print(f"makespan            : {result.makespan} slots")
    print(f"communication slots : {result.communication_slots}")
    print(f"computation slots   : {result.computation_slots}")
    print(f"suspended slots     : {result.idle_slots} (workers reclaimed)")
    print()
    activity = activity_from_events(engine.events, platform.num_processors, result.makespan)
    print(render_gantt(activity, trace.block(0, result.makespan),
                       worker_names=[p.name for p in platform]))
    print()
    print("Reading the chart: the master can serve only ncom = 2 workers per slot,")
    print("so P4 idles while P2/P3 download the program; reclaimed slots (·) merely")
    print("suspend the execution — had a worker gone DOWN (#), the whole iteration")
    print("would have restarted from scratch.")


if __name__ == "__main__":
    main()
