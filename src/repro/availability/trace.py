"""Availability traces and trace-replay models.

Two distinct needs are served here:

* **Off-line problems and golden tests** need a *fixed, known* availability
  matrix (the vectors :math:`S_q` of the paper).  :class:`AvailabilityTrace`
  stores such a matrix (one row per processor, one column per slot) with
  helpers for slicing, serialisation, and conversion to/from compact string
  form (``"uurdd..."``).

* **Trace-driven simulation** (the robustness extension, or replaying a
  recorded desktop-grid log) needs an :class:`AvailabilityModel` that simply
  replays one row of a trace.  :class:`TraceAvailabilityModel` wraps a single
  per-processor state sequence and exposes the model interface, fitting an
  empirical Markov matrix for use by the analysis-based heuristics.

Recorded logs enter this representation through :mod:`repro.traces`:
:mod:`repro.traces.formats` parses interval CSV / JSONL event / compact
files into :class:`AvailabilityTrace` matrices, :mod:`repro.traces.fit`
calibrates Markov / semi-Markov / diurnal models against them, and
:mod:`repro.traces.resample` bootstrap-resamples them into substrates for
arbitrary processor counts (registered as the ``trace-catalog``,
``trace-bootstrap`` and ``fitted`` availability kinds).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.availability.model import AvailabilityModel
from repro.availability.statistics import estimate_markov_matrix
from repro.exceptions import InvalidModelError
from repro.types import UP, ProcessorState, StateLike

__all__ = ["AvailabilityTrace", "TraceAvailabilityModel"]


def _coerce_states(row: Union[str, Sequence[StateLike], np.ndarray]) -> np.ndarray:
    """Convert a row given as string / sequence / array into an int8 vector."""
    if isinstance(row, str):
        return np.array([int(ProcessorState.from_char(c)) for c in row], dtype=np.int8)
    if isinstance(row, np.ndarray) and row.dtype.kind in "iu":
        values = row.astype(np.int8)
        if values.size and (values.min() < 0 or values.max() > 2):
            raise InvalidModelError("state codes must be 0 (UP), 1 (RECLAIMED) or 2 (DOWN)")
        return values
    return np.array([int(ProcessorState.coerce(value)) for value in row], dtype=np.int8)


class AvailabilityTrace:
    """A fixed availability matrix: ``states[q, t]`` is the state of P_q at slot *t*."""

    def __init__(self, states: Union[np.ndarray, Sequence[Union[str, Sequence[StateLike]]]]):
        if isinstance(states, np.ndarray) and states.ndim == 2:
            matrix = _coerce_states(states.reshape(-1)).reshape(states.shape)
        else:
            rows = [_coerce_states(row) for row in states]
            if not rows:
                raise InvalidModelError("a trace needs at least one processor row")
            lengths = {row.size for row in rows}
            if len(lengths) != 1:
                raise InvalidModelError(
                    f"all processor rows must have the same length, got lengths {sorted(lengths)}"
                )
            matrix = np.vstack(rows)
        if matrix.ndim != 2:
            raise InvalidModelError("trace states must form a 2-D matrix")
        self._states = matrix.astype(np.int8)

    # ------------------------------------------------------------------
    @property
    def states(self) -> np.ndarray:
        """The underlying ``(p, N)`` int8 matrix (copy)."""
        return self._states.copy()

    @property
    def num_processors(self) -> int:
        return int(self._states.shape[0])

    @property
    def horizon(self) -> int:
        """Number of time-slots covered by the trace."""
        return int(self._states.shape[1])

    def state(self, worker: int, t: int) -> ProcessorState:
        """State of processor *worker* at slot *t*."""
        return ProcessorState(int(self._states[worker, t]))

    def row(self, worker: int) -> np.ndarray:
        """The full state vector :math:`S_q` of one processor."""
        return self._states[worker].copy()

    def block(self, start: int, stop: int) -> np.ndarray:
        """The ``(p, stop - start)`` state block for slots ``[start, stop)``.

        This is the chunked accessor used by the simulation engine: unlike
        :attr:`states` it copies only the requested slice, never the whole
        matrix.
        """
        if start < 0 or stop < start or stop > self.horizon:
            raise ValueError(
                f"need 0 <= start <= stop <= {self.horizon}, got [{start}, {stop})"
            )
        return self._states[:, start:stop].copy()

    def up_matrix(self) -> np.ndarray:
        """Boolean matrix ``up[q, t]`` — True where the processor is UP."""
        return self._states == int(UP)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_strings(self) -> List[str]:
        """Compact per-processor strings such as ``"uurddru"``."""
        chars = np.array(["u", "r", "d"])
        return ["".join(chars[row]) for row in self._states]

    def to_dict(self) -> dict:
        return {"type": "trace", "rows": self.to_strings()}

    @classmethod
    def from_dict(cls, payload: dict) -> "AvailabilityTrace":
        if payload.get("type") != "trace":
            raise InvalidModelError(f"not a trace payload: {payload.get('type')!r}")
        return cls(payload["rows"])

    @classmethod
    def from_models(
        cls,
        models: Sequence[AvailabilityModel],
        horizon: int,
        seed=None,
        *,
        initial: Optional[ProcessorState] = None,
    ) -> "AvailabilityTrace":
        """Materialise a trace by sampling one trajectory per model."""
        from repro.utils.rng import spawn_generators

        generators = spawn_generators(seed, len(models))
        rows = [
            model.sample_trajectory(horizon, generator, initial=initial)
            for model, generator in zip(models, generators)
        ]
        return cls(np.vstack(rows) if rows else np.empty((0, horizon), dtype=np.int8))

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AvailabilityTrace):
            return NotImplemented
        return self._states.shape == other._states.shape and bool(
            np.all(self._states == other._states)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AvailabilityTrace p={self.num_processors} N={self.horizon}>"


class TraceAvailabilityModel(AvailabilityModel):
    """Replay a single processor's recorded state sequence.

    The model steps through the given sequence slot by slot; when the
    sequence is exhausted the behaviour is controlled by ``wrap``:

    * ``wrap=True`` (default) — replay from the beginning (periodic
      extension), which keeps long simulations well-defined;
    * ``wrap=False`` — the final state repeats forever.

    :meth:`markov_approximation` fits a maximum-likelihood Markov matrix to
    the sequence, which is exactly the "flawed Markov model built from
    traces" that the paper's conclusion proposes to study.
    """

    def __init__(self, states: Union[str, Sequence[StateLike], np.ndarray], *, wrap: bool = True):
        values = _coerce_states(states)
        if values.size == 0:
            raise InvalidModelError("a trace model needs at least one state")
        self._sequence = values
        self._wrap = bool(wrap)
        self._cursor = 0
        self._fitted: Optional[np.ndarray] = None

    def reset(self) -> None:
        self._cursor = 0

    def initial_state(self, rng: np.random.Generator) -> ProcessorState:
        self._cursor = 0
        return ProcessorState(int(self._sequence[0]))

    def next_state(self, current: ProcessorState, rng: np.random.Generator) -> ProcessorState:
        self._cursor += 1
        if self._cursor >= self._sequence.size:
            if self._wrap:
                self._cursor = self._cursor % self._sequence.size
            else:
                self._cursor = self._sequence.size - 1
        return ProcessorState(int(self._sequence[self._cursor]))

    def sample_block(
        self,
        start_slot: int,
        horizon: int,
        rng: np.random.Generator,
        *,
        current: ProcessorState,
    ) -> np.ndarray:
        """Replay *horizon* slots of the sequence at once (no randomness)."""
        if start_slot < 1:
            raise ValueError(f"start_slot must be >= 1, got {start_slot}")
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        size = self._sequence.size
        indices = self._cursor + 1 + np.arange(horizon)
        if self._wrap:
            indices %= size
        else:
            indices = np.minimum(indices, size - 1)
        if horizon:
            self._cursor = int(indices[-1])
        return self._sequence[indices]

    def markov_approximation(self) -> np.ndarray:
        if self._fitted is None:
            self._fitted = estimate_markov_matrix(self._sequence)
        return self._fitted.copy()

    def describe(self) -> str:
        up_fraction = float(np.mean(self._sequence == int(UP))) if self._sequence.size else 0.0
        return f"Trace(length={self._sequence.size}, up_fraction={up_fraction:.3f})"
