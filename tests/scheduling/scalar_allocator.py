"""The per-candidate greedy loop, kept as the allocator's test oracle.

``IncrementalAllocator`` answers most candidate scores from its greedy-path
tree.  :class:`ScalarAllocator` is the loop the tree replaced: every call
scores every eligible worker at every step through the public
:class:`~repro.analysis.cache.AnalysisContext` and
:class:`~repro.analysis.group.GroupAnalysis` accessors, with no memo of its
own.  ``test_batch_equivalence.py`` and ``test_greedy_path.py`` require
both allocators to pick the same configurations, call for call and over
whole simulations.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence

from repro.application.configuration import Configuration
from repro.scheduling.allocation import IncrementalAllocator


class ScalarAllocator(IncrementalAllocator):
    """An :class:`IncrementalAllocator` whose ``allocate`` runs the plain loop."""

    def allocate(
        self,
        up_workers: Sequence[int],
        *,
        has_program: Iterable[int] = (),
        received_data: Optional[Mapping[int, int]] = None,
        elapsed: int = 0,
    ) -> Optional[Configuration]:
        up_workers = sorted(set(int(w) for w in up_workers))
        if not up_workers:
            return None
        capacities = self._capacities
        if sum(capacities[w] for w in up_workers) < self.num_tasks:
            return None
        program_set = frozenset(int(w) for w in has_program)
        reusable = {int(k): int(v) for k, v in received_data.items()} if received_data else {}
        tprog = self.platform.tprog
        tdata = self.platform.tdata
        ncom = self.platform.ncom
        criterion_name = self.criterion.name
        higher_better = self.criterion.higher_is_better
        group = self.analysis.group
        mode = self.analysis.mode
        context = self.analysis

        # Mutable running state of the greedy allocation.
        allocation: Dict[int, int] = {}
        worker_set: FrozenSet[int] = frozenset()
        loads: Dict[int, int] = {}
        comm_slots: Dict[int, int] = {}
        max_load = 0
        total_comm = 0
        # Per-worker single-worker expected communication times (for the max term).
        per_worker_comm_time: Dict[int, float] = {}

        def candidate_comm_slots(worker: int, tasks: int) -> int:
            already = min(reusable.get(worker, 0), tasks)
            program_cost = 0 if worker in program_set else tprog
            return program_cost + (tasks - already) * tdata

        for _ in range(self.num_tasks):
            best_worker: Optional[int] = None
            best_value = -math.inf if higher_better else math.inf
            for worker in up_workers:
                current_tasks = allocation.get(worker, 0)
                if current_tasks >= capacities[worker]:
                    continue
                new_tasks = current_tasks + 1
                # --- workload of the candidate configuration -------------
                new_load = new_tasks * self._speeds[worker]
                workload = new_load if new_load > max_load else max_load
                # --- communication estimate -------------------------------
                new_comm_q = candidate_comm_slots(worker, new_tasks)
                old_comm_q = comm_slots.get(worker, 0)
                candidate_total_comm = total_comm - old_comm_q + new_comm_q
                if worker in worker_set:
                    candidate_set = worker_set
                    num_workers = len(worker_set)
                else:
                    candidate_set = worker_set | {worker}
                    num_workers = len(worker_set) + 1
                comm_time = context.single_expected_time(worker, new_comm_q)
                for other, slots in comm_slots.items():
                    if other == worker:
                        continue
                    other_time = per_worker_comm_time.get(other, 0.0)
                    if other_time > comm_time:
                        comm_time = other_time
                if num_workers > ncom:
                    bandwidth_bound = candidate_total_comm / ncom
                    if bandwidth_bound > comm_time:
                        comm_time = bandwidth_bound
                if candidate_total_comm > 0 and comm_time == math.inf:
                    comm_probability = 0.0
                elif candidate_total_comm > 0:
                    duration = int(math.ceil(comm_time))
                    comm_probability = 1.0
                    # Ascending worker order: the canonical product order of the
                    # analysis layer (frozenset iteration order depends on the
                    # set's construction history, which would make the value an
                    # accident of the greedy path rather than a function of the
                    # candidate set).
                    for other in sorted(candidate_set):
                        comm_probability *= group.worker(other).no_down_probability(duration)
                else:
                    comm_time = 0.0
                    comm_probability = 1.0
                # --- computation estimate ---------------------------------
                quantities = group.quantities(candidate_set)
                comp_probability = quantities.success_probability(workload)
                comp_time = quantities.expected_time(workload, mode)
                # --- criterion value ---------------------------------------
                probability = comm_probability * comp_probability
                expected = comm_time + comp_time
                if criterion_name == "P":
                    value = probability
                elif criterion_name == "E":
                    value = expected
                elif criterion_name == "Y":
                    denominator = elapsed + expected
                    value = probability / denominator if denominator > 0 else math.inf
                else:  # "AY"
                    value = probability / expected if expected > 0 else math.inf

                if best_worker is None:
                    best_worker = worker
                    best_value = value
                elif higher_better:
                    if value > best_value:
                        best_worker = worker
                        best_value = value
                else:
                    if value < best_value:
                        best_worker = worker
                        best_value = value

            if best_worker is None:
                return None  # defensive: cannot happen after the capacity sum check
            # Commit the task to the winning worker and update the running state.
            new_tasks = allocation.get(best_worker, 0) + 1
            allocation[best_worker] = new_tasks
            worker_set = worker_set | {best_worker}
            loads[best_worker] = new_tasks * self._speeds[best_worker]
            if loads[best_worker] > max_load:
                max_load = loads[best_worker]
            new_comm_q = candidate_comm_slots(best_worker, new_tasks)
            total_comm += new_comm_q - comm_slots.get(best_worker, 0)
            comm_slots[best_worker] = new_comm_q
            per_worker_comm_time[best_worker] = context.single_expected_time(
                best_worker, new_comm_q
            )

        return Configuration(allocation)
