"""Diurnal (time-of-day dependent) availability model.

Desktop-grid characterisation studies (Kondo et al., Javadi et al. — cited in
Section II of the paper) consistently report a strong day/night pattern:
interactive machines are reclaimed by their owners during office hours and
mostly idle (hence available) at night.  The paper's Markov model is
time-homogeneous and cannot express this; this module provides a
*non-homogeneous* extension that cycles through a fixed set of phases (e.g.
"office hours" / "evening" / "night"), each with its own 3-state transition
matrix.

The model plugs into the same :class:`AvailabilityModel` interface, so it can
be used directly by the simulator; :meth:`markov_approximation` returns the
time-average of the phase matrices (weighted by phase length), which is the
natural "flawed" homogeneous model a scheduler would fit to a trace — making
this a second substrate (besides :mod:`~repro.availability.semi_markov`) for
the robustness experiments suggested in the paper's conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.availability.markov import MarkovAvailabilityModel
from repro.availability.model import AvailabilityModel, scan_transition_maps
from repro.exceptions import InvalidModelError
from repro.types import DOWN, RECLAIMED, UP, ProcessorState
from repro.utils.validation import check_probability_matrix

__all__ = ["DiurnalPhase", "DiurnalAvailabilityModel"]


@dataclass(frozen=True)
class DiurnalPhase:
    """One phase of the daily cycle: a name, a duration and a transition matrix."""

    name: str
    duration: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise InvalidModelError(f"phase duration must be >= 1 slot, got {self.duration}")
        object.__setattr__(
            self, "matrix", check_probability_matrix(self.matrix, f"phase {self.name!r}", size=3)
        )


class DiurnalAvailabilityModel(AvailabilityModel):
    """Cyclic non-homogeneous Markov availability.

    Parameters
    ----------
    phases:
        The phases of one cycle, in order.  The cycle repeats forever; the
        model keeps an internal slot counter (reset by :meth:`reset`).
    phase_offset:
        Slot offset into the cycle at time 0 (lets different processors be
        out of phase, e.g. machines in different time zones).
    """

    def __init__(self, phases: Sequence[DiurnalPhase], *, phase_offset: int = 0) -> None:
        if not phases:
            raise InvalidModelError("a diurnal model needs at least one phase")
        self._phases = list(phases)
        self._cycle = sum(phase.duration for phase in self._phases)
        if phase_offset < 0:
            raise InvalidModelError(f"phase_offset must be >= 0, got {phase_offset}")
        self._offset = int(phase_offset) % self._cycle
        self._clock = 0
        # Precompute, for each slot of the cycle, which phase applies and its
        # cumulative transition thresholds (fast next_state sampling).
        self._phase_of_slot = np.empty(self._cycle, dtype=np.int64)
        position = 0
        for index, phase in enumerate(self._phases):
            self._phase_of_slot[position: position + phase.duration] = index
            position += phase.duration
        self._cumulative = [np.cumsum(phase.matrix, axis=1) for phase in self._phases]
        for matrix in self._cumulative:
            matrix[:, -1] = 1.0

    # ------------------------------------------------------------------
    @classmethod
    def office_hours(
        cls,
        *,
        day_length: int = 96,
        office_fraction: float = 0.4,
        night_stay_up: float = 0.995,
        office_stay_up: float = 0.90,
        office_reclaim_bias: float = 0.8,
        crash_probability: float = 0.002,
        phase_offset: int = 0,
    ) -> "DiurnalAvailabilityModel":
        """A two-phase preset: volatile office hours, stable nights.

        Parameters
        ----------
        day_length:
            Slots per day (e.g. 96 fifteen-minute slots).
        office_fraction:
            Fraction of the day spent in the volatile "office" phase.
        night_stay_up / office_stay_up:
            Probability of remaining UP during each phase.
        office_reclaim_bias:
            Fraction of office-hour departures from UP that are reclamations
            (the rest are crashes).
        crash_probability:
            Additional per-slot crash probability at night.
        """
        if not (0.0 < office_fraction < 1.0):
            raise InvalidModelError("office_fraction must lie strictly between 0 and 1")
        office_slots = max(1, int(round(day_length * office_fraction)))
        night_slots = max(1, day_length - office_slots)

        office_leave = 1.0 - office_stay_up
        office = np.array(
            [
                [office_stay_up, office_leave * office_reclaim_bias,
                 office_leave * (1.0 - office_reclaim_bias)],
                [0.15, 0.80, 0.05],
                [0.30, 0.10, 0.60],
            ]
        )
        night = np.array(
            [
                [night_stay_up, 1.0 - night_stay_up - crash_probability, crash_probability],
                [0.60, 0.38, 0.02],
                [0.40, 0.05, 0.55],
            ]
        )
        return cls(
            [
                DiurnalPhase("office", office_slots, office),
                DiurnalPhase("night", night_slots, night),
            ],
            phase_offset=phase_offset,
        )

    # ------------------------------------------------------------------
    @property
    def phases(self) -> List[DiurnalPhase]:
        return list(self._phases)

    def phase_at(self, slot: int) -> DiurnalPhase:
        """The phase in force at absolute slot *slot* (taking the offset into account)."""
        index = self._phase_of_slot[(slot + self._offset) % self._cycle]
        return self._phases[int(index)]

    # ------------------------------------------------------------------
    # AvailabilityModel interface
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._clock = 0

    def initial_state(self, rng: np.random.Generator) -> ProcessorState:
        self._clock = 0
        # Start UP with the stationary availability of the *initial* phase as
        # a tie-breaker: UP if a uniform draw falls under the phase's
        # long-run UP share, otherwise RECLAIMED (never start DOWN).
        phase = self.phase_at(0)
        share = MarkovAvailabilityModel(phase.matrix).availability()
        return UP if rng.random() < max(share, 0.5) else RECLAIMED

    def next_state(self, current: ProcessorState, rng: np.random.Generator) -> ProcessorState:
        phase_index = int(self._phase_of_slot[(self._clock + self._offset) % self._cycle])
        thresholds = self._cumulative[phase_index][int(current)]
        self._clock += 1
        draw = rng.random()
        if draw < thresholds[0]:
            return UP
        if draw < thresholds[1]:
            return RECLAIMED
        return DOWN

    def sample_block(
        self,
        start_slot: int,
        horizon: int,
        rng: np.random.Generator,
        *,
        current: ProcessorState,
    ) -> np.ndarray:
        """Vectorised block sampling with per-slot phase matrices.

        The transition into slot *t* is governed by the phase in force at
        slot ``t - 1`` (matching :meth:`next_state`, whose clock lags the
        produced slot by one).  Absolute slot indices are used, so the
        internal clock is re-synchronised to ``start_slot + horizon - 1``
        and mixed block/slot-by-slot driving stays consistent.  The per-slot
        maps go through
        :func:`~repro.availability.model.scan_transition_maps`, which
        composes only the slots whose map is not the identity.
        """
        if start_slot < 1:
            raise ValueError(f"start_slot must be >= 1, got {start_slot}")
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if horizon == 0:
            return np.empty(0, dtype=np.int8)
        clocks = (np.arange(start_slot - 1, start_slot - 1 + horizon) + self._offset) % self._cycle
        phase_indices = self._phase_of_slot[clocks]
        cumulatives = np.stack(self._cumulative)[phase_indices]  # (horizon, 3, 3)
        draws = rng.random(horizon)[:, None]
        # maps[t, i] = next state from i under draw t and the slot's phase.
        maps = (draws >= cumulatives[:, :, 0]).astype(np.int8)
        maps += draws >= cumulatives[:, :, 1]
        self._clock = start_slot - 1 + horizon
        return scan_transition_maps(maps, int(current))

    def markov_approximation(self) -> np.ndarray:
        """Duration-weighted average of the phase matrices (homogeneous fit)."""
        matrix = np.zeros((3, 3))
        for phase in self._phases:
            matrix += phase.duration * phase.matrix
        return matrix / self._cycle

    def describe(self) -> str:
        names = "/".join(f"{phase.name}:{phase.duration}" for phase in self._phases)
        return f"Diurnal({names}, offset={self._offset})"
