"""The :class:`AnalysisContext`: everything a scheduler needs, with caching.

The on-line heuristics call the Theorem 5.1 machinery thousands of times per
simulated iteration (once per candidate worker per task per slot for the
proactive heuristics).  The quantities involved depend only on

* the *set* of workers considered (group quantities),
* the remaining per-worker communication slots (communication estimate), and
* the remaining workload (cheap scalar arithmetic once the group quantities
  are known),

so aggressive memoisation keyed on those values makes the heuristics
affordable without changing any result.  :class:`AnalysisContext` bundles the
per-worker analyses, the group analysis and a communication-estimate cache,
and exposes a single :meth:`evaluate` entry point mirroring
:func:`repro.analysis.evaluation.evaluate_configuration`, plus
:meth:`AnalysisContext.switch_pairs`, the proactive switch test's
``(probability, expected time)`` pairs read from the same memos without
building an estimate object.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.communication import CommunicationEstimate, estimate_communication
from repro.analysis.criteria import expected_time, success_probability
from repro.analysis.evaluation import ConfigurationEstimate
from repro.analysis.group import ExpectationMode, GroupAnalysis, GroupQuantities
from repro.analysis.single import WorkerAnalysis
from repro.application.configuration import Configuration
from repro.platform.platform import Platform

__all__ = ["AnalysisContext", "EvaluationRequest"]

#: Candidate pairs :meth:`AnalysisContext.switch_pairs` keeps before its table
#: is emptied and started over (the 24 scenarios of the paper-mix benchmark
#: met 1,443 distinct (candidate, holders) keys in all).
CANDIDATE_PAIR_LIMIT = 4096


@dataclass(frozen=True)
class EvaluationRequest:
    """One configuration to score in an :meth:`AnalysisContext.evaluate_batch` call.

    Mirrors the keyword arguments of :meth:`AnalysisContext.evaluate`; a batch
    may mix items with explicit remaining communication (re-scoring a running
    configuration) and items evaluated from scratch (fresh candidates).
    """

    configuration: Configuration
    comm_slots: Optional[Mapping[int, int]] = None
    has_program: Iterable[int] = ()
    received_data: Optional[Mapping[int, int]] = None
    workload: Optional[int] = None
    completed_work: int = 0
    elapsed: int = 0


class AnalysisContext:
    """Cached analytical machinery bound to one platform.

    Parameters
    ----------
    platform:
        The platform whose workers are analysed.  Non-Markovian availability
        models are handled through their Markov approximation (see
        :meth:`Platform.markov_models`).
    epsilon:
        Precision of the truncated series of Theorem 5.1.
    mode:
        Which ``E^(S)(W)`` estimator the heuristics should use.
    max_horizon:
        Cap on the truncation horizon.
    """

    def __init__(
        self,
        platform: Platform,
        *,
        epsilon: float = 1e-6,
        mode: ExpectationMode = ExpectationMode.PAPER,
        max_horizon: int = 200_000,
    ) -> None:
        self.platform = platform
        self._mode = mode
        models = platform.markov_models()
        self._workers = [
            WorkerAnalysis(model, speed=proc.speed, capacity=proc.capacity)
            for model, proc in zip(models, platform.processors)
        ]
        self.group = GroupAnalysis(self._workers, epsilon=epsilon, max_horizon=max_horizon)
        # Each worker's t -> P_ND(t) memo (t >= 1), read by comm_survival.
        self._no_down_memos = [analysis._no_down_scalar for analysis in self._workers]
        self._comm_cache: Dict[Tuple[Tuple[int, int], ...], CommunicationEstimate] = {}
        self._single_time_cache: Dict[Tuple[int, int], float] = {}
        # (frozen worker set, remaining workload) -> (P_comp, E_comp); the
        # memoisation key of ``evaluate_batch`` and the allocator.
        self._comp_cache: Dict[Tuple[FrozenSet[int], int], Tuple[float, float]] = {}
        # (frozen worker set, phase duration) -> Π_q P_ND(duration).
        self._survival_cache: Dict[Tuple[FrozenSet[int], int], float] = {}
        # (fresh candidate, program holders) -> its (P, E), see switch_pairs.
        self._candidate_pairs: Dict[
            Tuple[Configuration, FrozenSet[int]], Tuple[float, float]
        ] = {}
        #: State the allocators bound to this context share (their
        #: greedy-path trees and answer tables, see
        #: :mod:`repro.scheduling.allocation`); dropped with the memos.
        self.allocator_state: Dict[object, object] = {}
        #: Optional :class:`~repro.telemetry.tracer.Tracer` shared with the
        #: allocator: when set, ``evaluate_batch``, ``switch_pairs`` and
        #: ``IncrementalAllocator.allocate`` emit spans with memo hit/miss
        #: counters.  ``None`` (the default) is the exact untraced path.
        self.tracer = None

    # ------------------------------------------------------------------
    @property
    def mode(self) -> ExpectationMode:
        """The ``E^(S)(W)`` estimator in use.

        Several memos (single-worker expectations, communication estimates,
        computation estimates, candidate pairs, the allocators' shared state) cache
        mode-dependent values, so assigning a new mode drops them — stale
        entries would otherwise be replayed.
        """
        return self._mode

    @mode.setter
    def mode(self, mode: ExpectationMode) -> None:
        if mode is not self._mode:
            self._mode = mode
            self._comm_cache.clear()
            self._single_time_cache.clear()
            self._comp_cache.clear()
            self._candidate_pairs.clear()
            self.allocator_state.clear()

    def quantities(self, workers: Iterable[int]) -> GroupQuantities:
        """Group quantities (``Eu``, ``P₊``, ``E_c``) for a worker set."""
        return self.group.quantities(workers)

    def prefetch_groups(self, sets: Sequence[Iterable[int]]) -> None:
        """Compute and cache the group quantities of *sets*.

        A no-op for sets already cached; the allocator calls this with the
        candidate sets of a greedy step before scoring them.
        """
        self.group.prefetch(sets)

    # ------------------------------------------------------------------
    def computation(self, workers: FrozenSet[int], workload: int) -> Tuple[float, float]:
        """Memoised ``(P_comp, E_comp)`` of *workload* slots on the set *workers*.

        Keyed on the frozen worker set and the remaining workload — the same
        float operations as :meth:`GroupQuantities.success_probability` /
        :meth:`GroupQuantities.expected_time`, computed once per key.
        """
        workload = int(workload)
        if workload <= 0 or not workers:
            return (1.0, 0.0)
        key = (workers, workload)
        cached = self._comp_cache.get(key)
        if cached is None:
            quantities = self.group.quantities(workers)
            cached = (
                quantities.success_probability(workload),
                quantities.expected_time(workload, self.mode),
            )
            self._comp_cache[key] = cached
        return cached

    def comm_survival(self, workers: FrozenSet[int], duration: int) -> float:
        """Memoised ``Π_{q∈workers} P_ND(duration)`` (ascending worker order)."""
        duration = int(duration)
        key = (workers, duration)
        cached = self._survival_cache.get(key)
        if cached is None:
            memos = self._no_down_memos
            cached = 1.0
            for worker in sorted(workers):
                value = memos[worker].get(duration)
                if value is None:
                    value = self._workers[worker].no_down_probability(duration)
                cached *= value
            self._survival_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Raw memo dictionaries, exposed for hot-path consumers (the incremental
    # allocator probes them directly to skip the method-call overhead of the
    # accessors above on cache hits).  Entries must only ever be read, or
    # written with exactly the values :meth:`computation`,
    # :meth:`comm_survival` and :meth:`single_expected_time` would store.
    @property
    def computation_cache(self) -> Dict[Tuple[FrozenSet[int], int], Tuple[float, float]]:
        """``(frozen worker set, workload) -> (P_comp, E_comp)`` memo."""
        return self._comp_cache

    @property
    def survival_cache(self) -> Dict[Tuple[FrozenSet[int], int], float]:
        """``(frozen worker set, duration) -> Π P_ND(duration)`` memo."""
        return self._survival_cache

    @property
    def single_time_cache(self) -> Dict[Tuple[int, int], float]:
        """``(worker, comm slots) -> E^{(P_q)}(n)`` memo (``slots > 0`` keys only)."""
        return self._single_time_cache

    # ------------------------------------------------------------------
    def single_expected_time(self, worker: int, slots: int) -> float:
        """Cached single-worker ``E^{(P_q)}(n)`` (used by the communication estimate)."""
        if slots <= 0:
            return 0.0
        key = (int(worker), int(slots))
        cached = self._single_time_cache.get(key)
        if cached is None:
            cached = self.group.quantities((worker,)).expected_time(slots, self.mode)
            self._single_time_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    def communication(self, comm_slots: Mapping[int, int]) -> CommunicationEstimate:
        """Cached communication estimate for the given remaining slots.

        Keyed on the ``(worker, slots)`` items in ascending worker order.
        Mappings already in that order (the engine's and
        :meth:`Configuration.communication_slots`') hit on their items as
        they are; any other is sorted first.
        """
        key = tuple(comm_slots.items())
        cached = self._comm_cache.get(key)
        if cached is None:
            key = tuple(sorted((int(w), int(n)) for w, n in key))
            cached = self._comm_cache.get(key)
            if cached is None:
                cached = estimate_communication(
                    self.group, dict(key), ncom=self.platform.ncom, mode=self.mode
                )
                self._comm_cache[key] = cached
        return cached

    def switch_pairs(
        self,
        current: Configuration,
        comm_remaining: Mapping[int, int],
        progress: int,
        candidate: Configuration,
        holders: Iterable[int],
    ) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """The ``(P, E)`` pairs of the proactive switch test.

        The first pair is the running *current* configuration's, with
        *comm_remaining* communication slots and *progress* computation
        slots behind it; the second is a fresh *candidate*'s, built with the
        program on *holders*.  Each equals the ``(success_probability,
        expected_time)`` of the :meth:`evaluate` estimate of the same
        inputs, bit for bit, from the same communication and computation
        memos; no estimate object is built.  The candidate's pair depends on
        the candidate and the holders alone, so it is kept in a table keyed
        on them (emptied at :data:`CANDIDATE_PAIR_LIMIT` entries, and
        dropped with the other memos).

        When :attr:`tracer` is set, each call accumulates into one
        ``analysis.switch_pairs`` span counting the pairs scored
        (``requests``) and the candidate pairs the table answered
        (``hits``).
        """
        tracer = self.tracer
        begin = time.perf_counter_ns() if tracer is not None else 0
        workload = current.workload(self.platform) - int(progress)
        current_pair = self._pair(
            comm_remaining, frozenset(current.workers), workload if workload > 0 else 0
        )
        key = (candidate, holders if type(holders) is frozenset else frozenset(holders))
        candidate_pair = self._candidate_pairs.get(key)
        hit = candidate_pair is not None
        if not hit:
            candidate_pair = self._pair(
                candidate.communication_slots(self.platform, has_program=key[1]),
                frozenset(candidate.workers),
                candidate.workload(self.platform),
            )
            if len(self._candidate_pairs) >= CANDIDATE_PAIR_LIMIT:
                self._candidate_pairs.clear()
            self._candidate_pairs[key] = candidate_pair
        if tracer is not None:
            tracer.accumulate(
                "analysis.switch_pairs", begin, counters={"requests": 2, "hits": int(hit)}
            )
        return current_pair, candidate_pair

    def _pair(
        self, comm_slots: Mapping[int, int], workers: FrozenSet[int], workload: int
    ) -> Tuple[float, float]:
        """``(P, E)`` of *workload* computation slots on *workers* after
        *comm_slots* of communication (the parts of :meth:`_finish_estimate`)."""
        communication = self.communication(comm_slots)
        computation_probability, computation_time = self.computation(workers, workload)
        return (
            success_probability(communication.success_probability, computation_probability),
            expected_time(communication.expected_time, computation_time),
        )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        configuration: Configuration,
        *,
        comm_slots: Optional[Mapping[int, int]] = None,
        has_program: Iterable[int] = (),
        received_data: Optional[Mapping[int, int]] = None,
        workload: Optional[int] = None,
        completed_work: int = 0,
        elapsed: int = 0,
    ) -> ConfigurationEstimate:
        """Estimate *configuration* (see :func:`evaluate_configuration`).

        A one-request :meth:`evaluate_batch`; semantics are identical to the
        module-level function with ``mode=self.mode``.
        """
        return self.evaluate_batch(
            [
                EvaluationRequest(
                    configuration=configuration,
                    comm_slots=comm_slots,
                    has_program=has_program,
                    received_data=received_data,
                    workload=workload,
                    completed_work=completed_work,
                    elapsed=elapsed,
                )
            ]
        )[0]

    def evaluate_batch(
        self, requests: Sequence[EvaluationRequest]
    ) -> List[ConfigurationEstimate]:
        """Estimate a whole frontier of configurations in one call.

        Semantically identical to calling :meth:`evaluate` per request (the
        estimates are bit-identical); the uncached group quantities of the
        batch are filled first through :meth:`GroupAnalysis.prefetch`, and
        the per-request computation estimates are memoised on (frozen worker
        set, remaining workload) keys shared with :meth:`evaluate`.

        When :attr:`tracer` is set, each call accumulates into one
        aggregated ``analysis.evaluate_batch`` span (flushed at the end of
        the engine run) counting the requests evaluated and the
        computation-memo prefetches — the memo-efficiency evidence the
        profiling report aggregates.
        """
        tracer = self.tracer
        begin = time.perf_counter_ns() if tracer is not None else 0
        prepared = []
        prefetch = []
        for request in requests:
            comm_slots = request.comm_slots
            if comm_slots is None:
                comm_slots = request.configuration.communication_slots(
                    self.platform,
                    has_program=request.has_program,
                    received_data=request.received_data,
                )
            workload = request.workload
            if workload is None:
                workload = request.configuration.workload(self.platform)
            remaining = max(int(workload) - int(request.completed_work), 0)
            workers = frozenset(request.configuration.workers)
            prepared.append((request, comm_slots, remaining, workers))
            if remaining > 0 and workers and (workers, remaining) not in self._comp_cache:
                prefetch.append(workers)
        if prefetch:
            self.group.prefetch(prefetch)
        estimates = [
            self._finish_estimate(request, comm_slots, remaining, workers)
            for request, comm_slots, remaining, workers in prepared
        ]
        if tracer is not None:
            tracer.accumulate(
                "analysis.evaluate_batch",
                begin,
                counters={
                    "requests": len(requests),
                    "prefetched": len(prefetch),
                },
            )
        return estimates

    def _finish_estimate(
        self,
        request: EvaluationRequest,
        comm_slots: Mapping[int, int],
        remaining_workload: int,
        workers: FrozenSet[int],
    ) -> ConfigurationEstimate:
        communication = self.communication(comm_slots)
        computation_probability, computation_time = self.computation(
            workers, remaining_workload
        )
        return ConfigurationEstimate(
            configuration=request.configuration,
            workload=remaining_workload,
            communication=communication,
            computation_probability=computation_probability,
            computation_time=computation_time,
            elapsed=int(request.elapsed),
        )

    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop all memoised values (group quantities, estimates, candidate
        pairs, allocator state)."""
        self.group.clear_cache()
        self._comm_cache.clear()
        self._single_time_cache.clear()
        self._comp_cache.clear()
        self._survival_cache.clear()
        self._candidate_pairs.clear()
        self.allocator_state.clear()

    def cache_stats(self) -> Dict[str, int]:
        """Sizes of the internal caches (for diagnostics and tests)."""
        return {
            "group_sets": self.group.cache_size(),
            "communication_keys": len(self._comm_cache),
            "computation_keys": len(self._comp_cache),
            "survival_keys": len(self._survival_cache),
            "candidate_pairs": len(self._candidate_pairs),
        }
