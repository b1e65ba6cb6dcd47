"""One-pass multi-heuristic simulation over a shared availability realisation.

The Section VII campaign evaluates many heuristics on the *same*
(scenario, trial) availability realisation.  Running them through separate
:class:`~repro.simulation.engine.SimulationEngine` instances repeats the
expensive, heuristic-independent work once per heuristic: sampling (or trace
decoding) the worker-state blocks and deriving their per-column companions
(DOWN mask, column-change mask, per-worker event lists).

This module removes that duplication without changing a single result:

* one :class:`~repro.simulation.blocks.SampledTrace` — the sampler a solo
  engine uses too, and the one owner of the seed-to-streams recipe — draws
  the pass's realisation from the seed, and one
  :class:`~repro.simulation.blocks.SharedBlockSource` serves it in aligned
  windows — ``[k·B, (k+1)·B)`` for block size ``B`` — each wrapped in one
  :class:`~repro.simulation.kernels.BlockData` that every engine of the
  pass shares (masks and event lists are computed once per window, not once
  per engine).  A solo engine reads its windows from a private source of the
  same kind, so each engine of the pass sees the realisation it would see
  running alone with the same seed.
* :class:`MultiHeuristicDriver` builds one engine per scheduler, all backed
  by the same source, and advances them in lockstep, window by window: each
  engine calls its scheduler inline and runs up to its next window boundary
  before the next engine is resumed, so the window working set stays small
  and already-consumed windows can be released.

Each engine still takes its own decisions (rebuilds, communication,
fast-forward spans diverge per heuristic), so the returned
:class:`~repro.simulation.results.SimulationResult` of every scheduler is
bit-identical to a sequential ``SimulationEngine.run()`` with the same seed
— pinned by ``tests/simulation/test_multirun.py``.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.analysis.cache import AnalysisContext
from repro.application.application import Application
from repro.availability.trace import AvailabilityTrace
from repro.exceptions import SimulationError
from repro.platform.platform import Platform
from repro.scheduling.base import Scheduler
from repro.simulation.blocks import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_MAX_SLOTS,
    SampledTrace,
    SharedBlockSource,
)
from repro.simulation.engine import SimulationEngine
from repro.simulation.results import SimulationResult
from repro.utils.rng import SeedLike

__all__ = ["MultiHeuristicDriver"]


class MultiHeuristicDriver:
    """Advance several schedulers over one availability realisation, one pass.

    Parameters
    ----------
    platform, application:
        Shared models; every scheduler simulates the same instance.
    schedulers:
        The scheduler instances to co-simulate (one engine each; an instance
        must not be shared between drivers or engines).  Any scheduler type
        works — the engines only share availability, never decisions — but
        the intended use (and what the experiment layer routes here) is a
        cell's worth of passive-contract heuristics.
    seed:
        Per-engine run seed.  All engines get the same seed, so each result
        is bit-identical to ``SimulationEngine(..., seed=seed).run()``.
    trace:
        Optional replay trace handed to the :class:`SharedBlockSource`;
        without one the driver samples a :class:`SampledTrace` from *seed*.
    analysis:
        Optional shared :class:`AnalysisContext` (built once otherwise).
    metrics:
        Optional sequence of per-scheduler
        :class:`~repro.metrics.collector.MetricsCollector` instances (or
        ``None`` entries), one per scheduler, attached to the matching
        engine.  Collectors are read-only observers, so attaching them
        keeps every result bit-identical.
    tracer:
        Optional shared :class:`~repro.telemetry.tracer.Tracer` attached
        to every engine (engine spans carry the heuristic name, so one
        trace file disentangles the interleaved runs).  Read-only like the
        collectors; ``None`` is the exact untraced path.

    After :meth:`run`, :attr:`wall_seconds` holds the per-scheduler driving
    time (the shared window generation is attributed to the engine that
    first reached the window).
    """

    def __init__(
        self,
        platform: Platform,
        application: Application,
        schedulers: Sequence[Scheduler],
        *,
        seed: SeedLike = None,
        max_slots: int = DEFAULT_MAX_SLOTS,
        trace: Optional[AvailabilityTrace] = None,
        analysis: Optional[AnalysisContext] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        metrics: Optional[Sequence] = None,
        tracer=None,
    ) -> None:
        if not schedulers:
            raise SimulationError("MultiHeuristicDriver needs at least one scheduler")
        if metrics is not None and len(metrics) != len(schedulers):
            raise SimulationError(
                f"metrics must provide one collector per scheduler "
                f"({len(metrics)} given for {len(schedulers)} schedulers)"
            )
        if trace is None:
            trace = SampledTrace(platform, seed, max_slots)
        self.source = SharedBlockSource(
            platform, trace, block_size=block_size, max_slots=max_slots
        )
        self.analysis = analysis if analysis is not None else AnalysisContext(platform)
        self.engines: List[SimulationEngine] = [
            SimulationEngine(
                platform,
                application,
                scheduler,
                seed=seed,
                max_slots=max_slots,
                analysis=self.analysis,
                block_size=block_size,
                shared_blocks=self.source,
                metrics=metrics[index] if metrics is not None else None,
                tracer=tracer,
            )
            for index, scheduler in enumerate(schedulers)
        ]
        #: Per-scheduler driving wall time of the last :meth:`run`.
        self.wall_seconds: List[float] = []

    # ------------------------------------------------------------------
    def run(self) -> List[SimulationResult]:
        """Run every engine to completion; results in scheduler order."""
        perf_counter = time.perf_counter
        results: List[Optional[SimulationResult]] = [None] * len(self.engines)
        walls = [0.0] * len(self.engines)
        live: List[Tuple[int, Iterator[bool]]] = [
            (index, engine._windows()) for index, engine in enumerate(self.engines)
        ]
        while live:
            next_round: List[Tuple[int, Iterator[bool]]] = []
            for index, windows in live:
                # Advance this engine up to its next window boundary.
                started = perf_counter()
                if next(windows, False):
                    next_round.append((index, windows))
                else:
                    results[index] = self.engines[index].last_result
                walls[index] += perf_counter() - started
            live = next_round
            if live:
                # Everyone still running has finished its current window
                # and will next fetch at or past its end.
                watermark = min(
                    self.engines[index]._block_start + self.engines[index]._block_len
                    for index, _ in live
                )
                self.source.release_below(watermark)
        self.wall_seconds = walls
        return results  # type: ignore[return-value]
