"""Availability blocks: aligned windows of worker states, materialised once.

The simulation engine consumes availability in ``(m, block_size)`` ``int8``
blocks.  :class:`SharedBlockSource` produces them — from a replay trace or
by sampling the platform's models with the run's stream recipe — in aligned
windows ``[k·B, (k+1)·B)``, each wrapped in one
:class:`~repro.simulation.kernels.BlockData` with its derived masks and
tables.  A solo engine reads a private source; the engines of a
:class:`~repro.simulation.multirun.MultiHeuristicDriver` pass share one, so
the heuristic-independent work is paid once per window.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.availability.trace import AvailabilityTrace
from repro.exceptions import SimulationError
from repro.platform.platform import Platform
from repro.simulation.kernels import BlockData
from repro.types import ProcessorState
from repro.utils.rng import SeedLike, derive_run_streams

__all__ = ["SharedBlockSource", "DEFAULT_MAX_SLOTS", "DEFAULT_BLOCK_SIZE"]

#: Default makespan cap, matching the paper's 1,000,000-slot limit.
DEFAULT_MAX_SLOTS = 1_000_000

#: Default number of slots prefetched per availability block.
DEFAULT_BLOCK_SIZE = 4096


class SharedBlockSource:
    """Aligned availability windows, materialised once and shared by engines.

    Parameters
    ----------
    platform:
        The platform whose workers' states are served.
    trace:
        Optional replay trace (an :class:`AvailabilityTrace` or any object
        with ``num_processors``, ``horizon`` and ``block(start, stop)``).
        When absent, windows are sampled from the platform's availability
        models using the engine's per-worker stream recipe
        (:func:`~repro.utils.rng.derive_run_streams`), which makes the
        realisation bit-identical to a solo engine run with the same *seed*.
    seed:
        Seed of the sampled realisation (ignored when *trace* is given).
    streams:
        The run's :func:`~repro.utils.rng.derive_run_streams` tuple, used
        instead of *seed*: a solo engine derives its availability and
        scheduler streams together and hands them over here.
    block_size, max_slots:
        Must match the engines' parameters: window boundaries — and
        therefore the models' ``sample_block`` call sequence — depend on
        both.
    """

    def __init__(
        self,
        platform: Platform,
        *,
        trace: Optional[AvailabilityTrace] = None,
        seed: SeedLike = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_slots: int = DEFAULT_MAX_SLOTS,
        streams=None,
    ) -> None:
        if block_size < 1:
            raise SimulationError(f"block_size must be >= 1, got {block_size}")
        if max_slots < 1:
            raise SimulationError(f"max_slots must be >= 1, got {max_slots}")
        if trace is not None and trace.num_processors != platform.num_processors:
            raise SimulationError(
                f"trace has {trace.num_processors} processors but the platform "
                f"has {platform.num_processors}"
            )
        self.platform = platform
        self.trace = trace
        self.block_size = int(block_size)
        self.max_slots = int(max_slots)
        self._windows: Dict[int, BlockData] = {}
        self._next_index = 0
        self._last_column: Optional[np.ndarray] = None
        self._base_last_column: Optional[np.ndarray] = None
        # Platform-level hazard overlay: materialised once per window and
        # shared by every engine of the pass (replay traces carry it baked
        # in).  Deriving the extra hazard stream leaves the worker streams
        # bit-identical, so hazard-free sources are unchanged.
        self._hazard = platform.hazard if trace is None else None
        if trace is None:
            if streams is None:
                streams = derive_run_streams(
                    seed, platform.num_processors, hazard=self._hazard is not None
                )
            self._rngs = streams[0]
            self._hazard_rng = streams[2] if self._hazard is not None else None
        else:
            self._rngs = self._hazard_rng = None

    # ------------------------------------------------------------------
    def window(self, slot: int) -> Tuple[int, BlockData]:
        """The aligned window containing *slot*: ``(window start, data)``.

        Windows are generated sequentially and cached, so any engine may ask
        for any already-reachable slot; engines that run ahead trigger
        generation, the rest hit the cache.
        """
        if slot < 0 or slot >= self.max_slots:
            raise SimulationError(
                f"slot {slot} outside the source's range [0, {self.max_slots})"
            )
        index = slot // self.block_size
        while self._next_index <= index:
            self._generate_next()
        data = self._windows.get(index)
        if data is None:
            raise SimulationError(
                f"window {index} was already released (lockstep violation: "
                "an engine asked for a window below the release watermark)"
            )
        start = index * self.block_size
        if slot - start >= data.length:
            # The window was clipped by the trace horizon; a solo engine
            # would have asked for this slot directly and hit the same wall.
            raise SimulationError(
                f"availability trace ends at slot {start + data.length} but "
                f"the run reached slot {slot}; provide a longer trace or "
                "lower max_slots"
            )
        return start, data

    def release_below(self, slot: int) -> None:
        """Drop cached windows that end at or before *slot* (memory hygiene)."""
        block_size = self.block_size
        for index in [k for k in self._windows if (k + 1) * block_size <= slot]:
            del self._windows[index]

    # ------------------------------------------------------------------
    def _generate_next(self) -> None:
        start = self._next_index * self.block_size
        if self.trace is not None:
            horizon = self.trace.horizon
            if horizon < 1:
                raise SimulationError("availability trace is empty")
            if start >= horizon:
                raise SimulationError(
                    f"availability trace ends at slot {horizon} but the run "
                    f"reached slot {start}; provide a longer trace or lower "
                    "max_slots"
                )
            length = min(self.block_size, horizon - start, self.max_slots - start)
            block = np.asarray(self.trace.block(start, start + length), dtype=np.int8)
            if block.shape != (self.platform.num_processors, length):
                raise SimulationError(
                    f"availability source returned a block of shape "
                    f"{block.shape}, expected "
                    f"{(self.platform.num_processors, length)}"
                )
        else:
            length = min(self.block_size, self.max_slots - start)
            block = np.empty((self.platform.num_processors, length), dtype=np.int8)
            if start == 0:
                for worker_id, processor in enumerate(self.platform.processors):
                    model = processor.availability
                    model.reset()
                    rng = self._rngs[worker_id]
                    state = model.initial_state(rng)
                    block[worker_id, 0] = int(state)
                    if length > 1:
                        block[worker_id, 1:] = model.sample_block(
                            1, length - 1, rng, current=state
                        )
            else:
                # With a hazard, the base chains continue from the raw
                # pre-overlay states — same discipline as the solo engine,
                # which keeps the realisation window-boundary independent.
                previous = (
                    self._base_last_column
                    if self._hazard is not None
                    else self._last_column
                )
                for worker_id, processor in enumerate(self.platform.processors):
                    block[worker_id] = processor.availability.sample_block(
                        start,
                        length,
                        self._rngs[worker_id],
                        current=ProcessorState(int(previous[worker_id])),
                    )
            if self._hazard is not None:
                if start == 0:
                    self._hazard.reset(self._hazard_rng)
                self._base_last_column = block[:, -1].copy()
                self._hazard.overlay(start, block)
        self._windows[self._next_index] = BlockData(block, self._last_column)
        self._last_column = block[:, -1]
        self._next_index += 1
