"""Incremental greedy task allocation (the core of the passive heuristics).

Section VI-A: "Passive heuristics assign tasks to workers, which must be in
the UP state, one by one until m tasks are assigned.  Each task is assigned
to a worker according to a criterion that defines the heuristic."

The allocator therefore loops ``m`` times; at each step it considers every UP
worker with remaining capacity, evaluates the configuration obtained by
giving that worker one more task (probability of success, expected completion
time, yield, apparent yield — via the Section V machinery), and commits the
task to the worker whose configuration scores best under the heuristic's
criterion.

The same allocator also serves the proactive heuristics, which rebuild a
candidate configuration "from scratch ... as if no task were allocated to any
worker" at every slot.

Implementation note — this sits on the simulator's hottest path (a proactive
heuristic asks for ``m × |UP|`` candidate evaluations *per slot*), so the
inner loop computes the criterion values directly from the cached
:class:`~repro.analysis.group.GroupAnalysis` /
:class:`~repro.analysis.single.WorkerAnalysis` quantities instead of
materialising a :class:`Configuration` and a
:class:`~repro.analysis.evaluation.ConfigurationEstimate` per candidate.  The
formulas are exactly those of :mod:`repro.analysis.evaluation` and
:mod:`repro.analysis.communication`; ``tests/scheduling/test_allocation.py``
cross-checks the fast path against the reference evaluation.

Consecutive calls mostly differ by one or two workers flipping UP/RECLAIMED,
so the allocator also keeps a tree of the greedy states earlier calls
walked, with every candidate each state scored: a call re-scores only the
candidates its states have never seen, which is exact because a candidate's
score depends on the state and on the candidate alone.  The plain
per-candidate loop the tree replaced is kept as a test oracle
(``tests/scheduling/scalar_allocator.py``); ``test_greedy_path.py`` and
``test_batch_equivalence.py`` pin the tree against it on correlated,
generated and whole-simulation call sequences.

A proactive heuristic asks for a candidate at every slot, and a slot where
no worker changed state asks the same question as the slot before.  So
:meth:`IncrementalAllocator.allocate` also keeps the key and the answer of
its last call, and answers an equal key with the same object before it
normalises its inputs or walks the tree.  The key holds the UP workers as
passed, the program holders, the reusable data, the analysis mode and, for
Y alone (the only criterion whose winner reads it), the elapsed time.  One
remembered call is enough: on the paper-mix benchmark it answers 39% of the
calls, and a memo of every key seen would answer under 2% more.
"""

from __future__ import annotations

import math
import time
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence

from repro.analysis.cache import AnalysisContext
from repro.analysis.criteria import Criterion
from repro.application.configuration import Configuration
from repro.platform.platform import Platform

__all__ = ["IncrementalAllocator"]

#: Greedy states an allocator keeps before it drops its tree and starts over.
#: A state costs about 2 KB on a 20-worker platform, so a tree stays under a
#: megabyte; four times as many states saves only about 5% of a proactive
#: IE-based run.
GREEDY_STATE_LIMIT = 256

#: The ``allocate`` span counters of a call the last-call memo answered.
_REPEAT_COUNTERS = {
    "steps": 0,
    "candidates": 0,
    "path_hits": 0,
    "single_time_misses": 0,
    "survival_misses": 0,
    "computation_misses": 0,
    "computation_hits": 0,
    "repeats": 1,
}


class IncrementalAllocator:
    """Greedy, one-task-at-a-time configuration builder.

    Parameters
    ----------
    criterion:
        The figure of merit optimised at every step (defines IP / IE / IY /
        IAY).
    analysis:
        The platform's cached analytical machinery.
    platform:
        The platform (speeds, capacities, communication constants).
    num_tasks:
        ``m`` — how many tasks to place.
    """

    def __init__(
        self,
        criterion: Criterion,
        analysis: AnalysisContext,
        platform: Platform,
        num_tasks: int,
    ) -> None:
        if num_tasks < 1:
            raise ValueError(f"num_tasks must be >= 1, got {num_tasks}")
        self.criterion = criterion
        self.analysis = analysis
        self.platform = platform
        self.num_tasks = int(num_tasks)
        self._speeds = {q: platform.processor(q).speed for q in range(platform.num_processors)}
        self._capacities = {
            q: platform.processor(q).capacity for q in range(platform.num_processors)
        }
        # The greedy-path tree (see ``_allocate``).
        self._root: Optional[_GreedyState] = None
        self._root_mode = analysis.mode
        self._num_states = 0
        # The last-call memo (see ``allocate``); only Y's winner reads elapsed.
        self._answer_reads_elapsed = criterion.name == "Y"
        self._last_key: Optional[tuple] = None
        self._last_answer: Optional[Configuration] = None

    # ------------------------------------------------------------------
    def allocate(
        self,
        up_workers: Sequence[int],
        *,
        has_program: Iterable[int] = (),
        received_data: Optional[Mapping[int, int]] = None,
        elapsed: int = 0,
    ) -> Optional[Configuration]:
        """Build a full ``m``-task configuration, or return ``None`` if impossible.

        Parameters
        ----------
        up_workers:
            Workers eligible for enrolment (must be UP at the current slot).
        has_program:
            Workers that already hold the application program (affects the
            communication estimate).
        received_data:
            Data messages already received and reusable, per worker (only
            meaningful when rebuilding after a failure, per Section VI-A).
        elapsed:
            Slots already spent in the current iteration (enters the yield
            criteria).

        A call whose inputs equal the previous call's returns the previous
        answer, the same object (``None`` included), without touching the
        tree.

        When the shared :class:`AnalysisContext` carries a tracer
        (``analysis.tracer``), every call that reaches the tree or the
        last-call memo accumulates into one aggregated ``allocate`` span
        (duration, ``calls``, memo hit/miss counters, ``repeats`` for the
        memo's answers; flushed at the end of the engine run); with no
        tracer this method takes the exact pre-telemetry code path.
        """
        tracer = getattr(self.analysis, "tracer", None)
        begin = 0 if tracer is None else time.perf_counter_ns()
        # The last-call memo (see the module docstring): the key holds every
        # input the answer depends on, so an equal key is answered as is.
        up_key = tuple(up_workers)
        program_set = frozenset(map(int, has_program))
        key = (
            up_key,
            program_set,
            tuple(received_data.items()) if received_data else (),
            self.analysis.mode,
            elapsed if self._answer_reads_elapsed else None,
        )
        if key == self._last_key:
            if tracer is not None:
                tracer.accumulate(
                    "allocate",
                    begin,
                    counters=_REPEAT_COUNTERS,
                    criterion=self.criterion.name,
                )
            return self._last_answer
        answer = self._answer(up_key, program_set, received_data, elapsed, tracer)
        self._last_key = key
        self._last_answer = answer
        return answer

    def _answer(
        self,
        up_workers: Sequence[int],
        program_set: FrozenSet[int],
        received_data: Optional[Mapping[int, int]],
        elapsed: int,
        tracer,
    ) -> Optional[Configuration]:
        """:meth:`allocate` without the last-call memo."""
        up_workers = sorted(set(map(int, up_workers)))
        if not up_workers:
            return None
        capacities = self._capacities
        if sum(capacities[w] for w in up_workers) < self.num_tasks:
            return None
        if tracer is None:
            return self._allocate(up_workers, program_set, received_data, elapsed)
        begin = time.perf_counter_ns()
        stats = {
            "steps": 0,
            "candidates": 0,
            "path_hits": 0,
            "single_time_misses": 0,
            "survival_misses": 0,
            "computation_misses": 0,
        }
        result = self._allocate(up_workers, program_set, received_data, elapsed, stats)
        # The computation memo is probed exactly once per candidate the
        # greedy-path tree could not answer, so hits are the complement of
        # the recorded misses.
        stats["computation_hits"] = (
            stats["candidates"] - stats["path_hits"] - stats["computation_misses"]
        )
        stats["up_workers"] = len(up_workers)
        stats["repeats"] = 0
        tracer.accumulate(
            "allocate",
            begin,
            counters=stats,
            criterion=self.criterion.name,
        )
        return result

    # ------------------------------------------------------------------
    def _allocate(
        self,
        up_workers: Sequence[int],
        program_set: FrozenSet[int],
        received_data: Optional[Mapping[int, int]],
        elapsed: int,
        stats: Optional[Dict[str, int]] = None,
    ) -> Optional[Configuration]:
        """Greedy-path-memoised allocation.

        Every call walks the allocator's tree of :class:`_GreedyState` nodes
        from the empty state, one node per greedy step.  A worker enters a
        call as a *token*: its id, bit-flipped (``~w``) when it holds the
        program, paired with its reusable message count when it has one.  A
        candidate's ``(probability, expected time)`` is a pure function of
        the node (the tokens committed so far) and of the candidate's token,
        so a node scores each token once, whatever slot asks: only tokens the
        node has never seen — workers that just came UP, gained the program,
        or hold new reusable data — are evaluated (:meth:`_score`).  The
        winner is the argmax of the stored values over this call's tokens in
        ascending worker order, with the per-candidate loop's strict comparisons
        (:func:`_argmax`; Y's value ``P / (elapsed + E)`` is divided there,
        since it changes with the elapsed time).

        *stats*, when given (only by the traced :meth:`allocate` wrapper),
        accumulates greedy-step / candidate counts, the candidates answered
        by the tree (``path_hits``) and the analysis memo misses of the
        evaluated ones; with ``stats=None`` no counter is touched.
        """
        reusable = {int(k): int(v) for k, v in received_data.items()} if received_data else {}
        # One token per UP worker, in ascending worker order (see above).
        tokens: Dict[int, object] = {
            worker: ~worker if worker in program_set else worker for worker in up_workers
        }
        for worker, reuse in reusable.items():
            if reuse and worker in tokens:
                tokens[worker] = (tokens[worker], reuse)
        present = set(tokens.values())
        criterion_name = self.criterion.name
        higher_better = self.criterion.higher_is_better

        state = self._greedy_root()
        for _ in range(self.num_tasks):
            scored = state.scored
            unseen = present.difference(scored)
            evaluated = 0
            if unseen:
                evaluated = self._score(
                    state,
                    [worker for worker, token in tokens.items() if token in unseen],
                    tokens,
                    program_set,
                    reusable,
                    stats,
                )
            if stats is not None:
                eligible = sum(1 for token in present if scored[token] is not None)
                stats["steps"] += 1
                stats["candidates"] += eligible
                stats["path_hits"] += eligible - evaluated

            best_token = _argmax(tokens.values(), scored, criterion_name, higher_better, elapsed)
            if best_token is None:
                return None  # defensive: cannot happen after the capacity sum check

            child = state.children.get(best_token)
            if child is None:
                child = state.children[best_token] = self._extend(
                    state, _worker_of(best_token), program_set, reusable
                )
            state = child

        if state.configuration is None:
            state.configuration = Configuration(state.allocation)
        return state.configuration

    # ------------------------------------------------------------------
    def _greedy_root(self) -> "_GreedyState":
        """The empty greedy state, after dropping a full or stale tree.

        Scores depend on the analysis mode, like the analysis memos, so a
        mode change starts a new tree.
        """
        mode = self.analysis.mode
        if (
            self._root is None
            or self._num_states >= GREEDY_STATE_LIMIT
            or mode is not self._root_mode
        ):
            self._root = _GreedyState({}, frozenset(), 0, 0, {}, {})
            self._root_mode = mode
            self._num_states = 1
        return self._root

    def _extend(
        self,
        state: "_GreedyState",
        worker: int,
        program_set: FrozenSet[int],
        reusable: Mapping[int, int],
    ) -> "_GreedyState":
        """The child of *state* that commits one more task to *worker*."""
        self._num_states += 1
        new_tasks = state.allocation.get(worker, 0) + 1
        allocation = dict(state.allocation)
        allocation[worker] = new_tasks
        new_load = new_tasks * self._speeds[worker]
        already = min(reusable.get(worker, 0), new_tasks)
        new_comm_q = (0 if worker in program_set else self.platform.tprog) + (
            new_tasks - already
        ) * self.platform.tdata
        comm_slots = dict(state.comm_slots)
        comm_slots[worker] = new_comm_q
        comm_times = dict(state.comm_times)
        comm_times[worker] = self.analysis.single_expected_time(worker, new_comm_q)
        return _GreedyState(
            allocation,
            state.worker_set | {worker},
            new_load if new_load > state.max_load else state.max_load,
            state.total_comm + new_comm_q - state.comm_slots.get(worker, 0),
            comm_slots,
            comm_times,
        )

    def _score(
        self,
        state: "_GreedyState",
        workers: Sequence[int],
        tokens: Mapping[int, object],
        program_set: FrozenSet[int],
        reusable: Mapping[int, int],
        stats: Optional[Dict[str, int]],
    ) -> int:
        """Score *workers* (tokens unseen by *state*) and record them in it.

        Returns how many were evaluated (the rest are at capacity).

        Uncached group quantities come from one
        :meth:`AnalysisContext.prefetch_groups` call, the "slowest other
        transfer" term of the communication estimate from the state's
        top-two, and the survival products / computation estimates from the
        :class:`AnalysisContext` memos keyed on (frozen set, duration) and
        (frozen set, workload), probed directly so a hit costs one dictionary
        lookup.  Every value is produced by the same float expressions as
        the per-candidate reference loop.
        """
        capacities = self._capacities
        speeds = self._speeds
        tprog = self.platform.tprog
        tdata = self.platform.tdata
        ncom = self.platform.ncom
        context = self.analysis
        single_time_get = context.single_time_cache.get
        survival_get = context.survival_cache.get
        computation_get = context.computation_cache.get
        allocation_get = state.allocation.get
        worker_set = state.worker_set
        max_load = state.max_load
        total_comm = state.total_comm
        comm_slots_get = state.comm_slots.get
        # Top-two of the committed per-worker communication times: the
        # "slowest other transfer" for candidate w is the global max, or the
        # runner-up when w itself holds the max.
        slowest_worker = None
        slowest_time = second_time = -math.inf
        for other, other_time in state.comm_times.items():
            if other_time > slowest_time:
                slowest_worker, slowest_time, second_time = (
                    other,
                    other_time,
                    slowest_time,
                )
            elif other_time > second_time:
                second_time = other_time
        scored = state.scored
        criterion_name = self.criterion.name

        candidate_sets = {}
        for worker in workers:
            if allocation_get(worker, 0) >= capacities[worker]:
                scored[tokens[worker]] = None
            else:
                candidate_sets[worker] = (
                    worker_set if worker in worker_set else worker_set | {worker}
                )
        if not candidate_sets:
            return 0
        context.prefetch_groups(candidate_sets.values())

        for worker, candidate_set in candidate_sets.items():
            new_tasks = allocation_get(worker, 0) + 1
            # --- workload of the candidate configuration -----------------
            new_load = new_tasks * speeds[worker]
            workload = new_load if new_load > max_load else max_load
            # --- communication estimate -----------------------------------
            already = reusable.get(worker, 0)
            if already > new_tasks:
                already = new_tasks
            new_comm_q = (0 if worker in program_set else tprog) + (
                new_tasks - already
            ) * tdata
            candidate_total_comm = total_comm - comm_slots_get(worker, 0) + new_comm_q
            if new_comm_q <= 0:
                comm_time = 0.0
            else:
                comm_time = single_time_get((worker, new_comm_q))
                if comm_time is None:
                    if stats is not None:
                        stats["single_time_misses"] += 1
                    comm_time = context.single_expected_time(worker, new_comm_q)
            others_max = second_time if worker == slowest_worker else slowest_time
            if others_max > comm_time:
                comm_time = others_max
            if len(candidate_set) > ncom:
                bandwidth_bound = candidate_total_comm / ncom
                if bandwidth_bound > comm_time:
                    comm_time = bandwidth_bound
            if candidate_total_comm > 0:
                duration = int(math.ceil(comm_time))
                comm_probability = survival_get((candidate_set, duration))
                if comm_probability is None:
                    if stats is not None:
                        stats["survival_misses"] += 1
                    comm_probability = context.comm_survival(candidate_set, duration)
            else:
                comm_time = 0.0
                comm_probability = 1.0
            # --- computation estimate -------------------------------------
            # ``workload >= speed >= 1`` and the set is non-empty, so the
            # uncached-trivial branch of ``computation`` never applies.
            comp = computation_get((candidate_set, workload))
            if comp is None:
                if stats is not None:
                    stats["computation_misses"] += 1
                comp = context.computation(candidate_set, workload)
            comp_probability, comp_time = comp
            # --- criterion value (Y's depends on the elapsed time, so the
            # pair is kept and ``_argmax`` divides per call) -----------------
            probability = comm_probability * comp_probability
            expected = comm_time + comp_time
            if criterion_name == "P":
                value = probability
            elif criterion_name == "E":
                value = expected
            elif criterion_name == "AY":
                value = probability / expected if expected > 0 else math.inf
            else:  # "Y"
                value = (probability, expected)
            scored[tokens[worker]] = value
        return len(candidate_sets)


def _argmax(tokens, scored, name: str, higher_better: bool, elapsed: int):
    """The per-candidate loop's winner among the scored *tokens* (ascending workers):
    the first token whose value no later one beats strictly, NaN included."""
    best_token = None
    best_value = None
    for token in tokens:
        entry = scored[token]
        if entry is None:
            continue  # at capacity in this state
        if name == "Y":
            probability, expected = entry
            denominator = elapsed + expected
            value = probability / denominator if denominator > 0 else math.inf
        else:
            value = entry
        if best_token is None or (value > best_value if higher_better else value < best_value):
            best_token = token
            best_value = value
    return best_token


def _worker_of(token) -> int:
    """The worker a token stands for (see ``_allocate``)."""
    if type(token) is tuple:
        token = token[0]
    return ~token if token < 0 else token


class _GreedyState:
    """One node of an allocator's greedy-path tree: the tasks committed so far.

    A node is reached by exactly one sequence of winner tokens, so
    everything it stores is a function of that sequence: the running totals
    candidates are scored from, the scored candidates themselves and the
    children already reached.
    """

    __slots__ = (
        "allocation",
        "worker_set",
        "max_load",
        "total_comm",
        "comm_slots",
        "comm_times",
        "scored",
        "children",
        "configuration",
    )

    def __init__(
        self,
        allocation: Dict[int, int],
        worker_set: FrozenSet[int],
        max_load: int,
        total_comm: int,
        comm_slots: Dict[int, int],
        comm_times: Dict[int, float],
    ) -> None:
        self.allocation = allocation
        self.worker_set = worker_set
        self.max_load = max_load
        self.total_comm = total_comm
        self.comm_slots = comm_slots
        #: Committed per-worker single-worker communication times.
        self.comm_times = comm_times
        #: Candidate token -> its criterion value (for Y, whose value depends
        #: on the elapsed time, the ``(probability, expected time)`` pair),
        #: or ``None`` for a worker already at capacity in this state.  Plain
        #: floats keep the garbage collector's tracked-object count down.
        self.scored: Dict[object, object] = {}
        #: Winner token -> the state that commits it.
        self.children: Dict[object, "_GreedyState"] = {}
        #: The full configuration, once this state is a finished allocation.
        self.configuration: Optional[Configuration] = None
