"""Abstract availability-model interface.

The simulator drives availability models through a tiny protocol:

* :meth:`AvailabilityModel.initial_state` — draw the state at time-slot 0;
* :meth:`AvailabilityModel.sample_block` — draw the states of a whole block
  of consecutive slots at once (the simulator's hot path; vectorised by the
  concrete models);
* :meth:`AvailabilityModel.next_state` — draw the state at ``t + 1`` given
  the state at ``t`` (models may keep internal memory, e.g. semi-Markov
  holding times); kept as the single-slot compatibility primitive that the
  default :meth:`sample_block` falls back to;
* :meth:`AvailabilityModel.reset` — clear any internal memory so that a new
  trajectory can be sampled.

Every concrete ``sample_block`` implementation is *stream-equivalent* to the
corresponding sequence of ``next_state`` calls: it consumes the generator in
exactly the same order, so a fixed seed produces bit-identical trajectories
whichever driver is used.  The test suite pins this property down for every
model shipped here.

Schedulers that rely on the analytical results of Section V additionally need
a 3x3 Markov transition matrix.  Models that are genuinely Markovian return
their exact matrix from :meth:`AvailabilityModel.markov_approximation`;
non-Markovian models return a *fitted* matrix (this is precisely the "flawed
Markov model" experiment suggested in the paper's conclusion).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.types import ProcessorState
from repro.utils.rng import SeedLike, as_generator

__all__ = ["AvailabilityModel", "scan_transition_maps"]

#: Internal chunk size of :func:`scan_transition_maps`; keeps the scan's
#: O(n log n) composition cost at O(n log chunk) for long horizons.
_SCAN_CHUNK = 4096

# A map {0, 1, 2} -> {0, 1, 2} is encoded as m(0) + 3·m(1) + 9·m(2), i.e. one
# of 27 codes.  _DECODE[c, i] applies map c to state i; _COMPOSE[a, b] is the
# code of "apply b, then a".  Composing codes through one small lookup table
# is much faster than composing (n, 3) map matrices with gathers.
_DECODE = np.array(
    [[(code // power) % 3 for power in (1, 3, 9)] for code in range(27)], dtype=np.int8
)
_COMPOSE = np.array(
    [[int(_DECODE[a][_DECODE[b]] @ np.array([1, 3, 9])) for b in range(27)] for a in range(27)],
    dtype=np.int16,
)
#: Code of the identity map (0 + 3·1 + 9·2): the slot leaves every state as is.
_IDENTITY = 21


def scan_transition_maps(maps: np.ndarray, current: int) -> np.ndarray:
    """Apply a sequence of per-slot transition maps to an initial state.

    ``maps[t, i]`` is the state reached from state *i* by the transition of
    slot *t*; the result is the state trajectory ``s_t = maps[t][s_{t-1}]``
    with ``s_{-1} = current``.  Each map is packed into one of 27 codes with
    integer adds, and the slots whose code is not the identity
    (:data:`_IDENTITY`) go to :func:`_scan_moving_codes`.

    Used by the diurnal model, whose maps change with the slot's phase; the
    Markov model finds its moving slots without building the maps.
    """
    codes = maps[:, 0] + 3 * maps[:, 1] + 9 * maps[:, 2]
    moving = np.flatnonzero(codes != _IDENTITY)
    return _scan_moving_codes(maps.shape[0], moving, codes[moving], current)


def _scan_moving_codes(
    horizon: int, moving: np.ndarray, codes: np.ndarray, current: int
) -> np.ndarray:
    """The trajectory of *horizon* slots of which only *moving* can move a state.

    *moving* holds the ascending indices of the slots whose map is not the
    identity and *codes* their 27-code maps (the array is scanned in
    place); every other slot leaves the state as is.  In a slowly mixing
    chain most slots are such slots, so only the moving ones are
    prefix-composed: a Hillis–Steele scan (map composition is associative)
    through the :data:`_COMPOSE` lookup table, processed in chunks so the
    work stays quasi-linear.  One ``np.repeat`` then forward-fills the
    trajectory, so the scan's cost follows the slots that can change a
    state, not the horizon.
    """
    # reached[k + 1] is the state after the k-th moving slot; reached[0] the
    # state before the first one.
    reached = np.empty(moving.shape[0] + 1, dtype=np.int8)
    reached[0] = state = int(current)
    for chunk_start in range(0, moving.shape[0], _SCAN_CHUNK):
        chunk = codes[chunk_start: chunk_start + _SCAN_CHUNK]
        length = chunk.shape[0]
        offset = 1
        while offset < length:
            chunk[offset:] = _COMPOSE[chunk[offset:], chunk[:-offset]]
            offset *= 2
        trajectory = _DECODE[chunk, state]
        reached[chunk_start + 1: chunk_start + 1 + length] = trajectory
        state = int(trajectory[-1])
    # reached[k + 1] holds from slot moving[k] up to the next moving slot.
    return np.repeat(reached, np.diff(moving, prepend=0, append=horizon))


class AvailabilityModel(abc.ABC):
    """Abstract base class for per-processor availability processes."""

    @abc.abstractmethod
    def initial_state(self, rng: np.random.Generator) -> ProcessorState:
        """Draw the state of the processor at time-slot 0."""

    @abc.abstractmethod
    def next_state(
        self, current: ProcessorState, rng: np.random.Generator
    ) -> ProcessorState:
        """Draw the state at the next time-slot given the *current* state."""

    def reset(self) -> None:
        """Clear per-trajectory internal memory (no-op for memoryless models)."""

    def sample_block(
        self,
        start_slot: int,
        horizon: int,
        rng: np.random.Generator,
        *,
        current: ProcessorState,
    ) -> np.ndarray:
        """Draw the states of slots ``[start_slot, start_slot + horizon)`` at once.

        Parameters
        ----------
        start_slot:
            Absolute index of the first slot to sample (>= 1; slot 0 comes
            from :meth:`initial_state`).  Models with an internal clock
            (e.g. diurnal phases) use it to locate themselves in time.
        horizon:
            Number of slots to sample (>= 0).
        rng:
            The generator to consume.  The draws are taken in exactly the
            same order as *horizon* successive :meth:`next_state` calls, so
            block-sampling and slot-by-slot sampling of the same stream
            yield identical trajectories.
        current:
            The state at slot ``start_slot - 1``.

        Returns
        -------
        ``int8`` array of *horizon* state codes.

        The base implementation simply loops over :meth:`next_state`;
        concrete models override it with vectorised samplers.
        """
        if start_slot < 1:
            raise ValueError(f"start_slot must be >= 1, got {start_slot}")
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        states = np.empty(horizon, dtype=np.int8)
        state = current
        for offset in range(horizon):
            state = self.next_state(state, rng)
            states[offset] = int(state)
        return states

    @abc.abstractmethod
    def markov_approximation(self) -> np.ndarray:
        """Return a 3x3 stochastic matrix approximating this process.

        Rows/columns are ordered (UP, RECLAIMED, DOWN) as in
        :data:`repro.types.STATE_INDEX`.  For a genuine Markov model this is
        the exact transition matrix; for other models it is a best-effort
        Markov fit used by the analysis-based heuristics.
        """

    # ------------------------------------------------------------------
    # Convenience sampling helpers shared by all models.
    # ------------------------------------------------------------------
    def sample_trajectory(
        self,
        length: int,
        seed: SeedLike = None,
        *,
        initial: Optional[ProcessorState] = None,
    ) -> np.ndarray:
        """Sample a trajectory of *length* states as an ``int8`` array.

        Parameters
        ----------
        length:
            Number of time-slots to sample (>= 0).
        seed:
            Seed or generator for the random draws.
        initial:
            Optional forced initial state; when omitted the model's
            :meth:`initial_state` is used.
        """
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        rng = as_generator(seed)
        states = np.empty(length, dtype=np.int8)
        self.reset()
        if length == 0:
            return states
        current = initial if initial is not None else self.initial_state(rng)
        states[0] = int(current)
        states[1:] = self.sample_block(1, length - 1, rng, current=current)
        return states

    def describe(self) -> str:
        """One-line human-readable description (used in logs and reports)."""
        return type(self).__name__
