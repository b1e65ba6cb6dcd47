"""Empirical statistics of availability sequences.

Used for three purposes:

* validating the Markov samplers in tests (empirical transition frequencies
  must converge to the specified matrix);
* fitting a ("flawed") Markov model to a non-Markovian or recorded trace,
  which is the robustness experiment proposed in the paper's conclusion;
* descriptive statistics of traces (availability fraction, interval-length
  distributions) mirroring the measurements of desktop-grid characterisation
  studies cited in Section II.

The full trace pipeline — ingesting recorded logs, fitting calibrated models
over these statistics, and generating bootstrap/fitted substrates — lives in
:mod:`repro.traces` (see :mod:`repro.traces.fit` for the estimators that
consume :func:`state_intervals` and :func:`estimate_markov_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.types import DOWN, RECLAIMED, UP, ProcessorState

__all__ = [
    "estimate_markov_matrix",
    "transition_counts",
    "state_intervals",
    "state_runs",
    "TraceStatistics",
]


def _as_state_array(sequence: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    values = np.asarray(sequence)
    if values.dtype.kind not in "iu":
        values = np.array([int(ProcessorState.coerce(v)) for v in sequence])
    values = values.astype(np.int64)
    if values.size and (values.min() < 0 or values.max() > 2):
        raise ValueError("state codes must be 0 (UP), 1 (RECLAIMED) or 2 (DOWN)")
    return values


def transition_counts(sequence: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """3x3 matrix of observed transition counts in *sequence*."""
    values = _as_state_array(sequence)
    counts = np.zeros((3, 3), dtype=np.int64)
    if values.size < 2:
        return counts
    sources = values[:-1]
    targets = values[1:]
    np.add.at(counts, (sources, targets), 1)
    return counts


def estimate_markov_matrix(
    sequence: Union[Sequence[int], np.ndarray],
    *,
    prior: float = 0.0,
) -> np.ndarray:
    """Maximum-likelihood (optionally smoothed) Markov fit of a sequence.

    Rows with no observations default to "stay in place" (identity row),
    which is the most conservative completion: a state never observed is
    assumed absorbing rather than assumed to recover instantly.

    Parameters
    ----------
    sequence:
        State sequence (codes or :class:`ProcessorState` values).
    prior:
        Optional additive (Laplace) smoothing count applied to every cell,
        useful when fitting short traces for the analysis-based heuristics so
        that no transition gets an exactly-zero probability.
    """
    counts = transition_counts(sequence).astype(float)
    if prior < 0:
        raise ValueError(f"prior must be >= 0, got {prior}")
    counts += prior
    matrix = np.eye(3)
    for i in range(3):
        total = counts[i].sum()
        if total > 0:
            matrix[i] = counts[i] / total
    return matrix


def state_runs(sequence: Union[Sequence[int], np.ndarray]) -> List[Tuple[ProcessorState, int]]:
    """Maximal runs of *sequence* as ``(state, length)`` pairs, in order.

    This is the run-length encoding the interval statistics and the
    semi-Markov fitters of :mod:`repro.traces.fit` are built on: consecutive
    pairs give the embedded jump chain, the lengths give the per-state
    sojourn samples.
    """
    values = _as_state_array(sequence)
    if values.size == 0:
        return []
    boundaries = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [values.size]])
    return [
        (ProcessorState(int(values[start])), int(end - start))
        for start, end in zip(starts, ends)
    ]


def state_intervals(
    sequence: Union[Sequence[int], np.ndarray],
    *,
    censor_edges: bool = False,
) -> Dict[ProcessorState, List[int]]:
    """Lengths of maximal runs of each state in *sequence*.

    Returns a mapping state -> list of run lengths, in order of appearance.
    Desktop-grid characterisation studies (e.g. Kondo et al., Nurmi et al.)
    report exactly these interval-length distributions.

    Parameters
    ----------
    sequence:
        State sequence (codes or :class:`ProcessorState` values).
    censor_edges:
        When ``True``, drop the first and last run of the sequence.  Those
        runs are *edge-censored* — the trace starts or ends mid-interval, so
        their recorded length is a lower bound, not a complete interval —
        and counting them biases mean interval lengths short on short
        traces.  The default (``False``) keeps the historical behaviour for
        descriptive statistics; the calibrated fitters in
        :mod:`repro.traces.fit` exclude them.
    """
    intervals: Dict[ProcessorState, List[int]] = {UP: [], RECLAIMED: [], DOWN: []}
    runs = state_runs(sequence)
    if censor_edges:
        # The first and the last run are both censored; a single-run sequence
        # is censored on both sides and contributes nothing.
        runs = runs[1:-1]
    for state, length in runs:
        intervals[state].append(length)
    return intervals


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of one processor's availability sequence."""

    length: int
    up_fraction: float
    reclaimed_fraction: float
    down_fraction: float
    mean_up_interval: float
    mean_reclaimed_interval: float
    mean_down_interval: float
    num_failures: int
    empirical_matrix: np.ndarray

    @classmethod
    def from_sequence(
        cls,
        sequence: Union[Sequence[int], np.ndarray],
        *,
        censor_edges: bool = False,
    ) -> "TraceStatistics":
        """Summarise one state sequence.

        ``censor_edges`` controls whether the edge-censored first/last runs
        count towards the mean interval lengths (see
        :func:`state_intervals`); the default keeps them, pinning the
        historical behaviour of existing callers.
        """
        values = _as_state_array(sequence)
        length = int(values.size)
        if length == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, np.eye(3))
        fractions = [float(np.mean(values == code)) for code in range(3)]
        intervals = state_intervals(values, censor_edges=censor_edges)

        def mean_or_zero(items: List[int]) -> float:
            return float(np.mean(items)) if items else 0.0

        # A "failure" is an entry into the DOWN state (transition from a
        # non-DOWN state to DOWN, plus possibly starting DOWN).
        entries_down = int(np.sum((values[1:] == int(DOWN)) & (values[:-1] != int(DOWN))))
        if values[0] == int(DOWN):
            entries_down += 1
        return cls(
            length=length,
            up_fraction=fractions[int(UP)],
            reclaimed_fraction=fractions[int(RECLAIMED)],
            down_fraction=fractions[int(DOWN)],
            mean_up_interval=mean_or_zero(intervals[UP]),
            mean_reclaimed_interval=mean_or_zero(intervals[RECLAIMED]),
            mean_down_interval=mean_or_zero(intervals[DOWN]),
            num_failures=entries_down,
            empirical_matrix=estimate_markov_matrix(values),
        )
