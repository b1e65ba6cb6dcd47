"""Discrete-event (time-slot) simulator of the execution model of Section III.

The engine advances slot by slot:

1. realise the availability state of every processor for the slot;
2. handle failures (enrolled workers that went DOWN lose everything and the
   iteration's partial computation is lost);
3. ask the scheduler for the configuration of the slot;
4. apply configuration changes (newly enrolled workers must receive the
   program — unless they already hold it — and all their task data;
   un-enrolled workers lose their partially received data);
5. run the slot: a *communication* slot serves at most ``ncom`` enrolled UP
   workers that still need program/data; once every enrolled worker holds the
   program and all its data, *computation* slots accumulate whenever all
   enrolled workers are simultaneously UP;
6. when the accumulated computation reaches ``W = max_q x_q w_q`` the
   iteration completes; after the configured number of iterations the run is
   over and the makespan is reported.
"""

from repro.simulation.blocks import SampledTrace, SharedBlockSource
from repro.simulation.engine import SimulationEngine, simulate
from repro.simulation.events import EventKind, SimulationEvent
from repro.simulation.gantt import render_gantt
from repro.simulation.multirun import MultiHeuristicDriver
from repro.simulation.results import IterationRecord, SimulationResult
from repro.simulation.state import WorkerRuntime

__all__ = [
    "SimulationEngine",
    "simulate",
    "MultiHeuristicDriver",
    "SampledTrace",
    "SharedBlockSource",
    "SimulationResult",
    "IterationRecord",
    "SimulationEvent",
    "EventKind",
    "WorkerRuntime",
    "render_gantt",
]
