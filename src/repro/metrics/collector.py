"""Sampled per-slot metric time series for :class:`~repro.simulation.engine.SimulationEngine`.

The engine reports end-of-run scalars (makespan, success, slot counters).
This module adds the *trajectory*: a :class:`MetricsCollector` attached to an
engine samples a small set of per-slot series on a fixed stride grid
(slots ``0, stride, 2*stride, ...``) while the run executes:

``pool_up`` / ``pool_down``
    Number of processors in the ``UP`` / ``DOWN`` state at the sampled slot.
    Exact: computed vectorised from the prefetched availability blocks.

``active_workers``
    Size of the enrolled active set (the master's current configuration).

``enrollment_churn``
    Cumulative count of enrollment changes — every worker that joins or
    leaves the active set adds one.  Exact: the engine only replaces the
    enrolled-id array on failures and configuration changes, so churn is
    detected by object identity at no per-slot cost.

``iterations_completed``
    Completed application iterations at the sampled slot.

``work_completed``
    Cumulative computation slots executed across all enrolled workers.

``comm_backlog``
    Outstanding communication slots (program + pending task data) summed
    over the enrolled workers.

The collector piggybacks on the engine's existing traversal: fast-forward
paths that jump many slots at once stay enabled, and grid points inside a
jumped span are filled by interpolation — step interpolation for the exact
integer series (the composition provably cannot change inside a span the
engine fast-forwards over) and linear interpolation for ``work_completed``
and ``comm_backlog`` between two captured breakpoints.  Sampled values at
slots the engine actually visits are exact; in consequence the five exact
series are identical whether or not the engine fast-forwards, while the two
interpolated series may differ inside fast-forwarded spans from the
slot-by-slot path (``record_events=True``), which visits every slot.

The contract with the engine is four hooks, all cheap and all read-only —
a collector never mutates engine state, so attaching one cannot change a
simulation's result:

``begin(...)``            once per run, after scheduler binding;
``on_block(start, block)`` after each availability block prefetch;
``on_step(...)``          once per visited slot, before the slot advance;
``finish(...)``           once per run, after the drive loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import SimulationError

__all__ = [
    "DEFAULT_STRIDE",
    "MetricsCollector",
    "RunMetrics",
    "SERIES_NAMES",
]

#: Default sampling stride in slots.  At the paper's 10-second slots this is
#: roughly one sample every ten minutes of simulated time; a 1M-slot run
#: yields ~15.6k samples per series.
DEFAULT_STRIDE = 64

#: Names of the sampled series, in serialisation order.
SERIES_NAMES = (
    "pool_up",
    "pool_down",
    "active_workers",
    "enrollment_churn",
    "iterations_completed",
    "work_completed",
    "comm_backlog",
)

_UP_CODE = 0
_DOWN_CODE = 2

#: Serialised floats are rounded to this many decimals; the interpolated
#: series do not carry more genuine precision and compact storage matters.
_ROUND = 3


@dataclass(frozen=True)
class RunMetrics:
    """The sampled time series of one simulation run.

    ``series[name][i]`` is the value of ``name`` at slot ``i * stride``;
    every series has the same length, covering slots ``0 .. end_slot - 1``
    (``end_slot`` is the makespan for successful runs, the slot budget
    otherwise).
    """

    stride: int
    end_slot: int
    scheduler: str
    series: Dict[str, List[float]]

    @property
    def num_samples(self) -> int:
        """Number of grid points per series."""
        return (self.end_slot - 1) // self.stride + 1 if self.end_slot > 0 else 0

    def slots(self) -> List[int]:
        """The sampled slot indices (x axis shared by every series)."""
        return [index * self.stride for index in range(self.num_samples)]

    def as_dict(self) -> dict:
        """JSON-ready payload (plain lists, floats rounded)."""
        return {
            "stride": self.stride,
            "end_slot": self.end_slot,
            "scheduler": self.scheduler,
            "series": {
                name: [round(float(value), _ROUND) for value in values]
                for name, values in self.series.items()
            },
        }


class MetricsCollector:
    """Samples per-slot series from a running engine at a fixed stride.

    One collector serves one engine at a time; :meth:`begin` re-arms it, so
    the same instance may be reused across sequential runs (the benchmark
    harness does).  Attach with ``SimulationEngine(..., metrics=collector)``
    and read :meth:`result` after the run.
    """

    def __init__(self, stride: int = DEFAULT_STRIDE):
        if stride < 1:
            raise SimulationError(f"metrics stride must be >= 1, got {stride}")
        self.stride = int(stride)
        self._armed = False
        self._result: Optional[RunMetrics] = None

    # -- engine hooks ----------------------------------------------------

    def begin(self, tprog: int, tdata: int, max_slots: int, scheduler: str) -> None:
        """Arm the collector for a run of at most ``max_slots`` slots."""
        self._tprog = tprog
        self._tdata = tdata
        self._max_slots = max_slots
        self._scheduler = scheduler
        capacity = (max_slots - 1) // self.stride + 1
        self._capacity = capacity
        self._pool_up = np.zeros(capacity, dtype=np.int32)
        self._pool_down = np.zeros(capacity, dtype=np.int32)
        self._active = np.zeros(capacity, dtype=np.int32)
        self._churn = np.zeros(capacity, dtype=np.int64)
        self._iterations = np.zeros(capacity, dtype=np.int64)
        self._work = np.zeros(capacity, dtype=np.float64)
        self._backlog = np.zeros(capacity, dtype=np.float64)
        #: Highest grid index whose values are final.
        self._filled = -1
        self._churn_total = 0
        self._last_workers: Optional[Sequence[int]] = None
        self._last_members: frozenset = frozenset()
        #: Last captured breakpoint for the interpolated series.
        self._prev_slot = -1
        self._prev_work = 0.0
        self._prev_backlog = 0.0
        self._armed = True
        self._result = None

    def on_block(self, start: int, block: np.ndarray) -> None:
        """Record exact pool availability at the grid points a block covers."""
        if not self._armed:
            return
        stride = self.stride
        first = -(-start // stride)
        last = min((start + block.shape[1] - 1) // stride, self._capacity - 1)
        if first > last:
            return
        offsets = np.arange(first, last + 1) * stride - start
        columns = block[:, offsets]
        self._pool_up[first : last + 1] = (columns == _UP_CODE).sum(axis=0)
        self._pool_down[first : last + 1] = (columns == _DOWN_CODE).sum(axis=0)

    def on_step(
        self,
        slot: int,
        enrolled_runtimes: Sequence,
        enrolled_workers: Sequence[int],
        compute_slots: int,
        iterations: int,
    ) -> None:
        """Observe the engine state at ``slot`` (the last slot a loop pass covered)."""
        if enrolled_workers is not self._last_workers:
            members = frozenset(enrolled_workers)
            self._churn_total += len(members ^ self._last_members)
            self._last_members = members
            self._last_workers = enrolled_workers
        index = slot // self.stride
        if index <= self._filled:
            return
        tprog, tdata = self._tprog, self._tdata
        backlog = 0.0
        for runtime in enrolled_runtimes:
            backlog += runtime.comm_slots_remaining(tprog, tdata)
        self._capture(slot, index, len(enrolled_runtimes), compute_slots, iterations, backlog)

    def finish(
        self,
        end_slot: int,
        enrolled_runtimes: Sequence,
        enrolled_workers: Sequence[int],
        compute_slots: int,
        iterations: int,
    ) -> RunMetrics:
        """Seal the run: capture the closing state and truncate to ``end_slot``."""
        if not self._armed:
            raise SimulationError("MetricsCollector.finish() before begin()")
        end_slot = max(1, min(int(end_slot), self._max_slots))
        # The drive loop breaks out on completion *before* its per-slot hook,
        # so the closing state may not have been captured yet.
        self.on_step(end_slot - 1, enrolled_runtimes, enrolled_workers, compute_slots, iterations)
        count = (end_slot - 1) // self.stride + 1
        series: Dict[str, List[float]] = {
            "pool_up": self._pool_up[:count].tolist(),
            "pool_down": self._pool_down[:count].tolist(),
            "active_workers": self._active[:count].tolist(),
            "enrollment_churn": self._churn[:count].tolist(),
            "iterations_completed": self._iterations[:count].tolist(),
            "work_completed": self._work[:count].tolist(),
            "comm_backlog": self._backlog[:count].tolist(),
        }
        self._result = RunMetrics(
            stride=self.stride,
            end_slot=end_slot,
            scheduler=self._scheduler,
            series=series,
        )
        self._armed = False
        return self._result

    # -- internals -------------------------------------------------------

    def _capture(
        self,
        slot: int,
        index: int,
        active: int,
        work: float,
        iterations: int,
        backlog: float,
    ) -> None:
        index = min(index, self._capacity - 1)
        lo, hi = self._filled + 1, index + 1
        # Step interpolation: grid points between the previous capture and
        # this one lie inside a span the engine fast-forwarded over, where
        # the composition cannot change.
        self._active[lo:hi] = active
        self._churn[lo:hi] = self._churn_total
        self._iterations[lo:hi] = iterations
        grid_slots = np.arange(lo, hi, dtype=np.float64) * self.stride
        prev_slot = self._prev_slot
        if slot > prev_slot:
            fraction = (grid_slots - prev_slot) / (slot - prev_slot)
        else:
            fraction = np.ones_like(grid_slots)
        self._work[lo:hi] = self._prev_work + fraction * (work - self._prev_work)
        self._backlog[lo:hi] = self._prev_backlog + fraction * (backlog - self._prev_backlog)
        self._filled = index
        self._prev_slot = slot
        self._prev_work = float(work)
        self._prev_backlog = float(backlog)

    # -- results ---------------------------------------------------------

    def result(self) -> RunMetrics:
        """The series of the last finished run."""
        if self._result is None:
            raise SimulationError("no finished run: attach the collector and simulate first")
        return self._result
