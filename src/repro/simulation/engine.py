"""The time-slot simulation engine.

Implements the execution model of Section III faithfully:

* 3-state workers; DOWN destroys program, data and the iteration's partial
  computation; RECLAIMED merely suspends;
* bounded multi-port master: at most ``ncom`` simultaneous transfers;
* an iteration is a communication phase (program once per enrolment + one
  data message per assigned task) followed by a computation phase needing
  ``W = max_q x_q w_q`` slots during which *all* enrolled workers are
  simultaneously UP;
* changing the configuration (for any reason) loses the iteration's partial
  computation; un-enrolled workers keep the program but lose received data;
* the run completes when the requested number of iterations is done, or is
  declared failed when the slot cap is hit.

The engine is deliberately scheduler-agnostic and availability-agnostic: the
scheduler is any :class:`~repro.scheduling.base.Scheduler`, and availability
either comes from the processors' stochastic models or from a fixed
:class:`AvailabilityTrace` (replay).

Performance model
-----------------
Availability is consumed in *blocks*: worker states arrive as aligned
``(m, block_size)`` ``int8`` windows served by a
:class:`~repro.simulation.blocks.SharedBlockSource` — private to a solo
run, shared by the engines of a multi-heuristic pass.  The source slices a
trace: the replay trace, or a :class:`~repro.simulation.blocks.SampledTrace`
that draws the run's realisation from the run seed through the models'
:meth:`~repro.availability.model.AvailabilityModel.sample_block` vectorised
samplers as the run reaches it.  Because every worker owns an independent
generator stream, block sampling consumes exactly the same draws as
slot-by-slot sampling, so fixed seeds reproduce the same trajectories bit
for bit.

Schedulers whose :attr:`~repro.scheduling.base.Scheduler.passive_between_rebuilds`
flag is set (they return the carried-over configuration whenever
``Observation.needs_new_configuration()`` is false) unlock the fast paths,
built on the span primitives of :mod:`repro.simulation.kernels`:

* the observation and the ``select`` call are skipped on slots where the
  contract pins the decision;
* per-worker event lists (non-UP, DOWN and state-change columns, see
  :class:`~repro.simulation.kernels.BlockData`) turn the uneventful-span
  search of the communication phase into one ``bisect`` per enrolled
  worker, and with a channel for every enrolled worker the whole phase
  collapses into one jump;
* the computation phase jumps straight over UP/RECLAIMED flicker to the
  first enrolled DOWN transition or the iteration's completing slot.

Every short-cut is exact: it changes neither the trajectory nor any counter
of the run.  Keeping the per-slot event log (``record_events``) disables the
jumps, so that slot-by-slot path is the in-engine reference the fast paths
are tested against; :func:`repro.simulation.gantt.activity_from_events`
draws Figure-1 Gantt charts from the same log.

The engine owns the decision loop: it calls ``scheduler.select`` inline at
every slot where the scheduler is consulted.  A consulted slot pays only for
what changed since the previous one: the observation shares the program
holder set and the UP list until an event changes them and computes its
remaining fields on first read; a configuration is validated once, when
``select`` first returns it; a fresh column is read into Python ints once,
and that list is the run's one record of worker availability (the UP list,
the DOWN scan, the channel grants and the compute test all read it); and the
DOWN scan visits only the runtimes that can carry state (the enrolled ones
and the program holders, listed anew after a configuration change or a DOWN
transition) and is skipped on a column identical to the one just processed.
The run suspends only at availability window boundaries, which lets
:class:`~repro.simulation.multirun.MultiHeuristicDriver` advance several
engines in lockstep, window by window.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from typing import FrozenSet, Iterator, List, Optional, Sequence

import numpy as np

from repro.analysis.cache import AnalysisContext
from repro.application.application import Application
from repro.application.configuration import Configuration
from repro.availability.trace import AvailabilityTrace
from repro.exceptions import SchedulingError, SimulationError
from repro.platform.platform import Platform
from repro.scheduling.base import Scheduler, _EngineObservation
from repro.simulation.blocks import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_MAX_SLOTS,
    SampledTrace,
    SharedBlockSource,
)
from repro.simulation.comm import CommunicationManager
from repro.simulation.events import EventKind, EventLog
from repro.simulation.kernels import (
    BlockData,
    comm_phase_span,
    compute_span,
    frozen_span,
)
from repro.simulation.results import IterationRecord, SimulationResult
from repro.simulation.state import WorkerRuntime
from repro.telemetry.tracer import Tracer
from repro.types import DOWN, UP
from repro.utils.rng import SeedLike, run_entropy, scheduler_stream

__all__ = ["SimulationEngine", "simulate"]

_DOWN_CODE = int(DOWN)
_UP_CODE = int(UP)


class SimulationEngine:
    """Simulate one application run under one scheduler.

    Parameters
    ----------
    platform, application:
        The models of Section III.
    scheduler:
        The on-line scheduler driving configuration choices.
    seed:
        Seed for all stochastic elements of the run (availability sampling
        and scheduler tie-breaking).  Ignored for availability when *trace*
        is given.
    max_slots:
        Makespan cap; the run is declared failed when it is reached.
    trace:
        Optional fixed availability source to replay: an
        :class:`AvailabilityTrace`, a
        :class:`~repro.simulation.blocks.SampledTrace` or any object
        exposing ``num_processors``, ``horizon`` and ``block(start, stop)``.
        Must cover at least ``max_slots`` slots or the run fails with
        :class:`SimulationError` when it runs off the end.  Without one (and
        without *shared_blocks*), the engine samples a
        :class:`~repro.simulation.blocks.SampledTrace` of its own from the
        processors' models and *seed*; it is kept as :attr:`trace`, so the
        states a run read can be drawn after it.
    analysis:
        Optional pre-built :class:`AnalysisContext`; sharing one across runs
        on the same platform (different schedulers / trials) avoids
        recomputing the Markov machinery.
    block_size:
        Number of slots of worker states prefetched per availability block.
    shared_blocks:
        Optional :class:`~repro.simulation.blocks.SharedBlockSource`
        serving aligned availability windows (with their derived masks and
        event lists) computed once and shared by several engines simulating the
        same realisation.  Internal to
        :class:`~repro.simulation.multirun.MultiHeuristicDriver`; mutually
        exclusive with *trace* (the source owns the availability).
    record_events:
        Keep a structured event log (off by default; memory grows with the
        makespan).  The log is the run's one per-slot record: Gantt charts
        are drawn from it.  Each :meth:`run` starts a new log.
    metrics:
        Optional :class:`~repro.metrics.collector.MetricsCollector` sampling
        per-slot series (pool availability, active set, work, backlog) at a
        fixed stride while the run executes.  The collector is strictly
        read-only — attaching one never changes the trajectory or the
        result — and when ``None`` (the default) the hooks cost a single
        predicted-not-taken branch per visited slot.
    tracer:
        Optional :class:`~repro.telemetry.tracer.Tracer` recording
        wall-clock spans of the run's phases (block fetch, communication
        phase, fast-forward jumps, whole run).  Like the collector it is
        strictly read-only; ``None`` takes the exact untraced code path.
    """

    def __init__(
        self,
        platform: Platform,
        application: Application,
        scheduler: Scheduler,
        *,
        seed: SeedLike = None,
        max_slots: int = DEFAULT_MAX_SLOTS,
        trace: Optional[AvailabilityTrace] = None,
        analysis: Optional[AnalysisContext] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        shared_blocks=None,
        record_events: bool = False,
        metrics=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_slots < 1:
            raise SimulationError(f"max_slots must be >= 1, got {max_slots}")
        if block_size < 1:
            raise SimulationError(f"block_size must be >= 1, got {block_size}")
        if shared_blocks is not None and trace is not None:
            raise SimulationError(
                "shared_blocks and trace are mutually exclusive; give the "
                "trace to the SharedBlockSource instead"
            )
        platform.validate_for_tasks(application.tasks_per_iteration)
        if trace is not None and trace.num_processors != platform.num_processors:
            raise SimulationError(
                f"trace has {trace.num_processors} processors but the platform has "
                f"{platform.num_processors}"
            )
        self.platform = platform
        self.application = application
        self.scheduler = scheduler
        self.max_slots = int(max_slots)
        self.trace = trace
        self.block_size = int(block_size)
        self.analysis = analysis if analysis is not None else AnalysisContext(platform)
        self.events = EventLog(enabled=record_events)
        self.metrics = metrics
        self.tracer = tracer
        self._shared_blocks = shared_blocks
        #: Result of the most recently completed run.
        self.last_result: Optional[SimulationResult] = None

        # Availability comes from the given trace, the shared source, or a
        # SampledTrace of the engine's own; the engine derives only the
        # scheduler stream.  An own trace and the scheduler stream share the
        # trace's one entropy draw, so a Generator seed is drawn once.
        if trace is None and shared_blocks is None:
            self.trace = SampledTrace(platform, seed, self.max_slots)
            entropy = self.trace.entropy
        else:
            entropy = run_entropy(seed)
        self._scheduler_rng = scheduler_stream(entropy, platform.num_processors)
        # A solo run reads a private block source, opened per run.
        self._private_blocks: Optional[SharedBlockSource] = None

        self._comm = CommunicationManager(platform.ncom)
        self._runtimes: List[WorkerRuntime] = []
        self._block: Optional[np.ndarray] = None
        self._block_start = 0
        self._block_len = 0
        # Per-block companions, computed once per prefetch so the per-slot
        # loop does O(1) lookups instead of O(m) array scans:
        # _block_down[j]  — does column j contain a DOWN worker?
        # _block_same[j]  — is column j identical to column j - 1?
        # _block_data bundles both (plus the lazy per-worker event lists) so
        # block sources can share one copy.
        self._block_down: Optional[np.ndarray] = None
        self._block_same: Optional[np.ndarray] = None
        self._block_data: Optional[BlockData] = None

    # ------------------------------------------------------------------
    # Availability driving (chunked prefetch)
    # ------------------------------------------------------------------
    def _fetch_block(self, start: int) -> None:
        """Install the availability window containing slot *start*.

        The window may begin before *start* (the caller recomputes the
        block-relative offset).
        """
        tracer = self.tracer
        begin = time.perf_counter_ns() if tracer is not None else 0
        source = self._shared_blocks
        if source is None:
            if self._private_blocks is None:
                self._private_blocks = SharedBlockSource(
                    self.platform,
                    self.trace,
                    block_size=self.block_size,
                    max_slots=self.max_slots,
                )
            source = self._private_blocks
            source.release_below(start)  # a solo run holds one window at a time
        self._block_start, data = source.window(start)
        self._block = data.block
        self._block_len = data.length
        self._block_down = data.down
        self._block_same = data.same
        self._block_data = data
        if self.metrics is not None:
            # Every availability block of a run funnels through here (model
            # sampling, trace replay and shared windows alike), so this is
            # where the collector sees exact pool states.
            self.metrics.on_block(self._block_start, data.block)
        if tracer is not None:
            tracer.accumulate(
                "engine.block_fetch",
                begin,
                counters={"slots": self._block_len},
                heuristic=self.scheduler.name,
            )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the run and return its :class:`SimulationResult`."""
        for _ in self._windows():
            pass
        return self.last_result

    def _windows(self) -> Iterator[bool]:
        """The run, suspended (yielding ``True``) before each window fetch.

        :meth:`run` exhausts it; the multi-heuristic driver interleaves
        several of them window by window.  The result is stored in
        :attr:`last_result`.
        """
        platform = self.platform
        application = self.application
        tprog, tdata = platform.tprog, platform.tdata
        ncom = platform.ncom
        num_tasks = application.tasks_per_iteration

        self.scheduler.bind(platform, application, self.analysis, self._scheduler_rng)
        # Looked up per run, so a class-level wrapper installed before the
        # run sees every call.
        select = self.scheduler.select
        self._comm.reset()
        self.events = EventLog(enabled=self.events.enabled)
        self._runtimes = [WorkerRuntime(worker_id=q) for q in range(platform.num_processors)]
        runtimes = self._runtimes  # indexed by worker id
        self._private_blocks = None
        self._block = None
        self._block_start = 0
        self._block_len = 0

        collector = self.metrics
        if collector is not None:
            collector.begin(tprog, tdata, self.max_slots, self.scheduler.name)

        # Hoisted like the collector: with tracing off every span site below
        # reduces to one predicted-not-taken branch.
        tracer = self.tracer
        heuristic_name = self.scheduler.name
        run_begin = time.perf_counter_ns() if tracer is not None else 0

        # Schedulers that declare the passive contract let the engine pin
        # their decision on uneventful slots; fast-forwarding additionally
        # requires that the per-slot event log is off.
        contract = bool(getattr(self.scheduler, "passive_between_rebuilds", False))
        log_events = self.events.enabled
        can_fast_forward = contract and not log_events

        current_config = Configuration.empty()
        # The current configuration object once the engine has validated it
        # as a return of ``select``; returning it again needs no new check.
        validated: Optional[Configuration] = None
        # Cached per adopted configuration.
        feasible = False
        workload = 0
        # Observation state kept across slots: the program holders (None
        # once an event may have changed them) and the UP workers of the
        # column (None once the column changes).  Programs completed by the
        # fast paths need no reset: only contract schedulers take them, and
        # after a contract scheduler's rebuild slot a worker can only lack
        # the program if the configuration change of that slot enrolled it,
        # which already reset the holders.
        holders: Optional[FrozenSet[int]] = frozenset()
        up_workers: Optional[List[int]] = None
        # The runtimes that can carry state, ascending: the enrolled ones and
        # the program holders (un-enrolment and DOWN wipe every other field,
        # and only enrolled runtimes receive transfers).  The failure scan
        # reads only these; None once a configuration change or a DOWN
        # transition may have changed them.  A program transfer finishes only
        # on an enrolled runtime, which is listed already.
        carriers: Optional[List[WorkerRuntime]] = []
        # The slot's column as Python ints, read once per fresh column: the
        # one record of worker availability.
        column: List[int] = []
        enrolled_runtimes: List[WorkerRuntime] = []
        # Their worker ids, ascending; a new list on every configuration
        # change, so the collector can tell a change by identity.
        enrolled_workers: List[int] = []
        iteration_index = 0
        iteration_start = 0
        progress = 0
        new_iteration = True

        records: List[IterationRecord] = [IterationRecord(index=0, start_slot=0)]
        total_restarts = 0
        total_config_changes = 0
        total_comm_slots = 0
        total_compute_slots = 0
        total_idle_slots = 0

        makespan: Optional[int] = None
        success = False
        # True whenever the previously *processed* slot's column is not the
        # one at ``rel - 1`` (start of run, or after an enrolled-only
        # fast-forward), so the per-column change shortcut must not be used.
        states_dirty = True

        slot = 0
        while slot < self.max_slots:
            rel = slot - self._block_start
            if self._block is None or rel >= self._block_len:
                # Done with this window: let its lazily built lists go.
                self._block_data = None
                yield True
                self._fetch_block(slot)
                rel = slot - self._block_start
            # The previous processed slot saw this very column.
            repeated = not states_dirty and self._block_same[rel]
            if not repeated:
                column = self._block[:, rel].tolist()
                up_workers = None
                states_dirty = False

            record = records[-1]

            # ---- 1. failures among state-carrying workers ---------------
            # On a repeated column the previous slot's scan already cleared
            # every DOWN worker, and validation keeps them un-enrolled.
            failure = False
            if not repeated and self._block_down[rel]:
                if carriers is None:
                    carriers = [
                        runtime for runtime in runtimes
                        if runtime.enrolled or runtime.has_program
                    ]
                lost = [
                    runtime for runtime in carriers if column[runtime.worker_id] == _DOWN_CODE
                ]
                if lost:
                    carriers = None
                    for runtime in lost:
                        if runtime.enrolled:
                            failure = True
                            if log_events:
                                self.events.record(
                                    slot, EventKind.WORKER_FAILED, worker=runtime.worker_id
                                )
                        if runtime.has_program:
                            holders = None
                        runtime.on_down()
            if failure:
                if progress > 0 or not current_config.is_empty():
                    total_restarts += 1
                    record.restarts += 1
                    if log_events:
                        self.events.record(
                            slot, EventKind.ITERATION_RESTARTED, iteration=iteration_index
                        )
                progress = 0
                # Remove DOWN workers from the carried-over configuration.
                pruned = {
                    worker: tasks
                    for worker, tasks in current_config.items()
                    if column[worker] != _DOWN_CODE
                }
                current_config = Configuration(pruned)
                feasible = current_config.total_tasks() == num_tasks
                workload = current_config.workload(platform)
                enrolled_workers = list(current_config.workers)
                enrolled_runtimes = [runtimes[w] for w in enrolled_workers]

            # ---- 2. scheduler decision ---------------------------------
            # Contract schedulers return the carried-over configuration on
            # every slot where needs_new_configuration() is false; skip the
            # observation there.
            if contract and not (new_iteration or failure or current_config.is_empty()):
                new_config = current_config
            else:
                if holders is None:
                    holders = frozenset(
                        [runtime.worker_id for runtime in runtimes if runtime.has_program]
                    )
                if up_workers is None:
                    up_workers = [
                        worker for worker, code in enumerate(column) if code == _UP_CODE
                    ]
                new_config = select(_EngineObservation.build(
                    slot, self._block[:, rel], current_config, iteration_index,
                    slot - iteration_start, progress, failure, new_iteration, holders,
                    up_workers, enrolled_runtimes, tprog, tdata,
                ))
                if new_config is not current_config or new_config is not validated:
                    self._validate_selection(new_config, current_config, column, num_tasks)
                    validated = new_config
                    if new_config == current_config:
                        # Carry the validated twin, so returning it again
                        # needs no check.
                        current_config = new_config
            new_iteration = False

            # ---- 3. apply configuration change -------------------------
            if new_config != current_config:
                total_config_changes += 1
                record.configuration_changes += 1
                if log_events:
                    self.events.record(
                        slot,
                        EventKind.CONFIGURATION_CHANGED,
                        old=current_config.to_dict(),
                        new=new_config.to_dict(),
                    )
                progress = 0  # tight coupling: any reconfiguration loses partial work
                old_workers = set(current_config.workers)
                new_workers = set(new_config.workers)
                for worker in old_workers - new_workers:
                    runtimes[worker].on_unenroll()
                for worker in new_workers:
                    runtime = runtimes[worker]
                    tasks = new_config.tasks_on(worker)
                    if worker in old_workers and runtime.enrolled:
                        runtime.on_reassign(tasks)
                    else:
                        runtime.on_enroll(tasks)
                    runtime.absorb_free_transfers(tprog, tdata)
                current_config = new_config
                feasible = current_config.total_tasks() == num_tasks
                workload = current_config.workload(platform)
                enrolled_workers = list(current_config.workers)
                enrolled_runtimes = [runtimes[w] for w in enrolled_workers]
                # absorb_free_transfers hands out the program when tprog == 0.
                holders = carriers = None

            # ---- 4. run the slot ---------------------------------------
            if not feasible:
                total_idle_slots += 1
                record.idle_slots += 1
                if log_events:
                    self.events.record(slot, EventKind.IDLE, reason="no_feasible_configuration")
            else:
                remaining = [
                    runtime.comm_slots_remaining(tprog, tdata) for runtime in enrolled_runtimes
                ]
                comm_remaining = sum(remaining)
                if comm_remaining:
                    begin = time.perf_counter_ns() if tracer is not None else 0
                    jump = can_fast_forward and len(enrolled_runtimes) <= ncom
                    if jump:
                        # ---- whole-phase jump (capacity surplus) --------
                        # With a channel for every enrolled worker the
                        # sticky policy serves each needing UP worker on
                        # every slot, so the complete communication phase
                        # collapses to per-worker searches in the window's
                        # event lists.  Valid on failure slots too: the
                        # failure scan already pruned DOWN workers from the
                        # configuration, so the current column is DOWN-free
                        # for the enrolled set.
                        consumed, units, granted = comm_phase_span(
                            self._block_data, enrolled_workers, remaining, rel
                        )
                        for runtime, used in zip(enrolled_runtimes, units):
                            if used:
                                runtime.advance_communication(used, tprog, tdata)
                        self._comm.set_holders(granted)
                    else:
                        # ---- communication slot(s) ----------------------
                        # While no enrolled worker changes state every slot
                        # is a comm slot until the transfers complete, and
                        # the sticky grants change only when a transfer
                        # finishes, so fast-forwarding serves whole grant
                        # intervals at once.  The span is bounded by the
                        # work left and by the first enrolled state change.
                        span = 1
                        if can_fast_forward and not failure:
                            span += min(
                                self._block_len - rel - 1,
                                comm_remaining,
                                frozen_span(self._block_data, enrolled_workers, rel),
                            )
                        served = {} if log_events else None
                        consumed, program_completed = self._comm.serve(
                            enrolled_runtimes, remaining, column, span,
                            tprog=tprog, tdata=tdata, served=served,
                        )
                        if program_completed:
                            holders = None
                        if served:
                            self.events.record(slot, EventKind.COMMUNICATION, served=served)
                    total_comm_slots += consumed
                    record.communication_slots += consumed
                    if consumed > 1:
                        # Column ``rel`` itself was covered by this slot's
                        # failure scan; batch the rest of the span.
                        if self._apply_offline_failures(rel, consumed - 1, runtimes):
                            holders = carriers = None
                        slot += consumed - 1
                        states_dirty = True
                    if tracer is not None and (jump or consumed > 1):
                        tracer.accumulate(
                            "engine.comm_phase" if jump else "engine.comm_drain",
                            begin,
                            counters={"advance": consumed if jump else consumed - 1},
                            heuristic=heuristic_name,
                        )
                else:
                    all_up = all(
                        column[runtime.worker_id] == _UP_CODE for runtime in enrolled_runtimes
                    )
                    if all_up:
                        progress += 1
                        total_compute_slots += 1
                        record.computation_slots += 1
                        if log_events:
                            self.events.record(
                                slot,
                                EventKind.COMPUTATION,
                                progress=progress,
                                workload=workload,
                            )
                    else:
                        total_idle_slots += 1
                        record.idle_slots += 1
                        if log_events:
                            self.events.record(slot, EventKind.IDLE, reason="worker_reclaimed")

                    # ---- iteration completion ---------------------------
                    if progress >= workload and all_up:
                        record.end_slot = slot
                        if log_events:
                            self.events.record(
                                slot, EventKind.ITERATION_COMPLETED, iteration=iteration_index
                            )
                        iteration_index += 1
                        if iteration_index >= application.iterations:
                            makespan = slot + 1
                            success = True
                            if log_events:
                                self.events.record(slot, EventKind.RUN_COMPLETED, makespan=makespan)
                            break
                        # Start the next iteration at the next slot.
                        iteration_start = slot + 1
                        progress = 0
                        new_iteration = True
                        records.append(
                            IterationRecord(index=iteration_index, start_slot=slot + 1)
                        )
                        # Every enrolled worker already holds the program
                        # when tprog == 0, so the holders stay as they are.
                        for runtime in enrolled_runtimes:
                            runtime.on_new_iteration()
                            runtime.absorb_free_transfers(tprog, tdata)
                    elif can_fast_forward and not failure:
                        # ---- fast-forward uneventful compute/idle slots --
                        begin = time.perf_counter_ns() if tracer is not None else 0
                        # Jump straight over UP/RECLAIMED flicker to the
                        # first enrolled DOWN transition, the iteration's
                        # completing slot, or the block end — whichever
                        # comes first — splitting the consumed span into
                        # compute (all-UP) and idle columns.
                        advance, progressed = compute_span(
                            self._block_data, enrolled_workers, rel, workload - progress
                        )
                        if advance > 0:
                            if self._apply_offline_failures(rel, advance, runtimes):
                                holders = carriers = None
                            idled = advance - progressed
                            if progressed:
                                progress += progressed
                                total_compute_slots += progressed
                                record.computation_slots += progressed
                            if idled:
                                total_idle_slots += idled
                                record.idle_slots += idled
                            slot += advance
                            states_dirty = True
                            if tracer is not None:
                                tracer.accumulate(
                                    "engine.fast_forward",
                                    begin,
                                    counters={"advance": advance},
                                    heuristic=heuristic_name,
                                )
            if collector is not None:
                # ``slot`` is now the last slot this loop pass covered
                # (fast-forward branches advance it past the entry slot).
                collector.on_step(
                    slot, enrolled_runtimes, enrolled_workers, total_compute_slots, iteration_index
                )
            slot += 1

        self._block_data = None
        if not success:
            self.events.record(self.max_slots - 1, EventKind.RUN_ABORTED, reason="max_slots")

        if collector is not None:
            collector.finish(
                makespan if success else self.max_slots,
                enrolled_runtimes,
                enrolled_workers,
                total_compute_slots,
                iteration_index,
            )

        if tracer is not None:
            # One aggregated record per in-loop phase (comm, drain,
            # fast-forward, block fetch) plus the allocator/analysis spans
            # accumulated on this thread during the run, then the container.
            tracer.flush_accumulated()
            tracer.record(
                "engine.run",
                run_begin,
                heuristic=heuristic_name,
                slots=makespan if success else self.max_slots,
                success=success,
            )

        self.last_result = SimulationResult(
            scheduler=self.scheduler.name,
            success=success,
            makespan=makespan,
            completed_iterations=iteration_index,
            requested_iterations=application.iterations,
            max_slots=self.max_slots,
            iterations=records,
            total_restarts=total_restarts,
            total_configuration_changes=total_config_changes,
            communication_slots=total_comm_slots,
            computation_slots=total_compute_slots,
            idle_slots=total_idle_slots,
        )

    # ------------------------------------------------------------------
    def _apply_offline_failures(
        self, rel: int, advance: int, runtimes: Sequence[WorkerRuntime]
    ) -> bool:
        """Apply DOWN transitions of non-enrolled program holders in a batch.

        Fast-forwarded windows only pin the states of *enrolled* workers.  A
        non-enrolled worker can still carry runtime state — exactly when it
        holds the program (un-enrolment and DOWN both wipe partial transfers
        and received data) — and losing it to a DOWN transition inside the
        window must be reflected.  Since such a worker takes no part in the
        window's slots, applying its ``on_down`` after the jump is
        equivalent to applying it at the precise slot.  Returns whether a
        holder lost the program.
        """
        data = self._block_data
        lost = False
        for runtime in runtimes:
            if runtime.has_program and not runtime.enrolled:
                downs = data.events(runtime.worker_id)[1]
                index = bisect_right(downs, rel)
                if index < len(downs) and downs[index] <= rel + advance:
                    runtime.on_down()
                    lost = True
        return lost

    # ------------------------------------------------------------------
    def _validate_selection(
        self,
        new_config: Configuration,
        current_config: Configuration,
        column: Sequence[int],
        num_tasks: int,
    ) -> None:
        """Sanity checks on the scheduler's decision (model rules of Sec. III-C).

        *column* holds the slot's state codes, indexed by worker.
        """
        if new_config.is_empty():
            return
        if new_config.total_tasks() != num_tasks:
            raise SchedulingError(
                f"scheduler {self.scheduler.name!r} returned a configuration with "
                f"{new_config.total_tasks()} tasks instead of {num_tasks}"
            )
        current_workers = set(current_config.workers)
        for worker, tasks in new_config.items():
            if worker < 0 or worker >= self.platform.num_processors:
                raise SchedulingError(
                    f"scheduler {self.scheduler.name!r} enrolled unknown worker {worker}"
                )
            if tasks > self.platform.processor(worker).capacity:
                raise SchedulingError(
                    f"scheduler {self.scheduler.name!r} assigned {tasks} tasks to worker "
                    f"{worker} whose capacity is {self.platform.processor(worker).capacity}"
                )
            state = column[worker]
            if state == _DOWN_CODE:
                raise SchedulingError(
                    f"scheduler {self.scheduler.name!r} enrolled DOWN worker {worker}"
                )
            if worker not in current_workers and state != _UP_CODE:
                raise SchedulingError(
                    f"scheduler {self.scheduler.name!r} newly enrolled worker {worker} "
                    "which is not UP"
                )


def simulate(
    platform: Platform, application: Application, scheduler: Scheduler, **options
) -> SimulationResult:
    """One-shot convenience wrapper: ``SimulationEngine(...).run()``.

    Keyword *options* are those of :class:`SimulationEngine` (``seed``,
    ``max_slots``, ``trace``, ``analysis``, ``record_events``, ...).
    """
    return SimulationEngine(platform, application, scheduler, **options).run()
