"""Availability: one sampled realisation, served in aligned windows.

:class:`SampledTrace` is the one sampler of availability realisations: it
draws a run's worker states lazily from the platform's models and bakes in
the platform's hazard overlay.  It is the one place that turns a run seed
into availability streams (through the recipe of :mod:`repro.utils.rng`):
solo engines, the one-pass driver and the campaign runner all read their
realisation through one built from the seed, so every path sees the same
states bit for bit.

The simulation engine consumes availability in ``(m, block_size)`` ``int8``
blocks.  :class:`SharedBlockSource` serves any trace — a sampled one or a
replay trace — in aligned windows ``[k·B, (k+1)·B)``, each wrapped in one
:class:`~repro.simulation.kernels.BlockData` with its derived masks and
per-worker event lists.  A solo engine reads a private source; the engines of a
:class:`~repro.simulation.multirun.MultiHeuristicDriver` pass share one, so
the heuristic-independent work is paid once per window.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.availability.generators import sample_initial_states, sample_state_block
from repro.availability.trace import AvailabilityTrace
from repro.exceptions import SimulationError
from repro.platform.platform import Platform
from repro.simulation.kernels import BlockData
from repro.utils.rng import SeedLike, hazard_stream, run_entropy, worker_streams

__all__ = ["SampledTrace", "SharedBlockSource", "DEFAULT_MAX_SLOTS", "DEFAULT_BLOCK_SIZE"]

#: Default makespan cap, matching the paper's 1,000,000-slot limit.
DEFAULT_MAX_SLOTS = 1_000_000

#: Default number of slots prefetched per availability block.
DEFAULT_BLOCK_SIZE = 4096


class SampledTrace:
    """One availability realisation of *platform*, sampled as it is read.

    Implements the trace protocol (``num_processors``, ``horizon``,
    ``block``).  *seed* is the run seed: the trace draws the run's entropy
    from it once (:func:`~repro.utils.rng.run_entropy`, kept as
    :attr:`entropy`) and derives one stream per worker plus, on a platform
    with a hazard, the hazard master stream.  Each request samples exactly
    the slots not yet sampled; every worker consumes only its own stream and
    the hazard overlay is split-independent, so the realisation does not
    depend on how the horizon is split into requests.

    The states are kept in one ``(m, horizon)`` buffer allocated up front;
    the operating system commits its pages only as slots are sampled.  The
    trajectory continues from the models' internal memory (semi-Markov
    sojourns, diurnal clocks), so a trace must be fully consumed before the
    same model objects sample anything else.
    """

    def __init__(self, platform: Platform, seed: SeedLike, horizon: int) -> None:
        if horizon < 1:
            raise SimulationError(f"sampled trace horizon must be >= 1, got {horizon}")
        self._models = [processor.availability for processor in platform.processors]
        m = platform.num_processors
        #: The run's entropy draw; a solo engine derives its scheduler
        #: stream from it, so both come from one draw of the seed.
        self.entropy = run_entropy(seed)
        self._rngs = worker_streams(self.entropy, m)
        self._hazard = platform.hazard
        self._hazard_rng = hazard_stream(self.entropy, m) if self._hazard is not None else None
        self._horizon = int(horizon)
        try:
            self._buffer = np.empty((m, self._horizon), dtype=np.int8)
        except MemoryError:
            # The whole horizon is reserved up front, so a cap far beyond
            # what any run reaches can exceed the address space on offer.
            raise SimulationError(
                f"cannot reserve {m} x {self._horizon} slots "
                "of availability states; lower max_slots"
            ) from None
        self._filled = 0
        # The base chains continue from the raw pre-overlay states.
        self._base_last: Optional[np.ndarray] = None

    @property
    def num_processors(self) -> int:
        return len(self._models)

    @property
    def horizon(self) -> int:
        return self._horizon

    def block(self, start: int, stop: int) -> np.ndarray:
        """States for slots ``[start, stop)``, sampling the missing ones first."""
        if not (0 <= start <= stop <= self._horizon):
            raise SimulationError(
                f"requested block [{start}, {stop}) outside sampled trace "
                f"horizon {self._horizon}"
            )
        filled = self._filled
        if filled == 0:
            self._base_last = sample_initial_states(self._models, self._rngs)
            self._buffer[:, 0] = self._base_last
            if self._hazard is not None:
                self._hazard.reset(self._hazard_rng)
                self._hazard.overlay(0, self._buffer[:, 0:1])
            filled = self._filled = 1
        if stop > filled:
            fresh = self._buffer[:, filled:stop]
            fresh[:] = sample_state_block(
                self._models, filled, stop - filled, self._rngs, self._base_last
            )
            self._base_last = fresh[:, -1].copy()
            if self._hazard is not None:
                self._hazard.overlay(filled, fresh)
            self._filled = stop
        return self._buffer[:, start:stop].copy()


class SharedBlockSource:
    """Aligned windows of one trace, materialised once and shared by engines.

    Parameters
    ----------
    platform:
        The platform whose workers' states are served.
    trace:
        The realisation to serve: a :class:`SampledTrace`, an
        :class:`AvailabilityTrace` or any object with ``num_processors``,
        ``horizon`` and ``block(start, stop)``.
    block_size, max_slots:
        Must match the engines' parameters: window boundaries depend on
        both.
    """

    def __init__(
        self,
        platform: Platform,
        trace: AvailabilityTrace,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_slots: int = DEFAULT_MAX_SLOTS,
    ) -> None:
        if block_size < 1:
            raise SimulationError(f"block_size must be >= 1, got {block_size}")
        if max_slots < 1:
            raise SimulationError(f"max_slots must be >= 1, got {max_slots}")
        if trace.num_processors != platform.num_processors:
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
        horizon = self.trace.horizon
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
        self._windows[self._next_index] = BlockData(block, self._last_column)
        self._last_column = block[:, -1]
        self._next_index += 1
