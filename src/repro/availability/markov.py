"""The 3-state discrete-time Markov availability model of Section V.

The availability of processor :math:`P_q` is a recurrent aperiodic Markov
chain over the states ``{UP, RECLAIMED, DOWN}`` defined by nine transition
probabilities :math:`P^{(q)}_{i,j}` with :math:`i, j \\in \\{u, r, d\\}`.

Besides sampling (used by the simulator), this module exposes the
chain-level quantities consumed by the analytical machinery of
:mod:`repro.analysis`:

* the restriction of the chain to the *non-failure* states ``{UP,
  RECLAIMED}`` (the 2x2 matrix :math:`M_q` of the proof of Theorem 5.1) and
  its eigen-decomposition;
* :math:`P^{(q)}_{u \\xrightarrow{t} u}` — the probability that a processor
  that is UP at time 0 is UP again at time *t* without having been DOWN in
  between;
* :math:`P^{(q)}_{ND}(t)` — the probability that a processor UP at time 0
  does not become DOWN during the next *t* slots;
* the stationary distribution and the mean time to failure, which are
  useful for sanity checks and for the trace statistics module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import InvalidModelError
from repro.availability.model import AvailabilityModel, _scan_moving_codes
from repro.types import DOWN, RECLAIMED, UP, STATE_INDEX, ProcessorState
from repro.utils.validation import check_probability_matrix

__all__ = ["MarkovAvailabilityModel"]

_U = STATE_INDEX[UP]
_R = STATE_INDEX[RECLAIMED]
_D = STATE_INDEX[DOWN]


def _identity_interval(cumulative: np.ndarray) -> Tuple[float, float]:
    """The draws ``[low, high)`` under which no state moves.

    On the cumulative rows ``c`` of a transition matrix, a draw keeps UP
    below ``c[0, 0]``, keeps RECLAIMED in ``[c[1, 0], c[1, 1])`` and keeps
    DOWN from ``c[2, 1]`` on, so it keeps all three in the intersection.
    When ``low >= high`` the interval is empty and every draw moves a state.
    """
    low = max(cumulative[_R, 0], cumulative[_D, 1])
    high = min(cumulative[_U, 0], cumulative[_R, 1])
    return float(low), float(high)


@dataclass(frozen=True)
class _UpReturnSpectrum:
    """Eigen-decomposition of the {UP, RECLAIMED} sub-chain.

    For the 2x2 sub-matrix ``M`` (rows/columns ordered UP, RECLAIMED), the
    proof of Theorem 5.1 uses the closed form

    .. math:: P^{(q)}_{u \\xrightarrow{t} u} = (M^t)[0, 0]
              = \\mu \\lambda_1^t + \\nu \\lambda_2^t

    with :math:`\\lambda_1 \\ge \\lambda_2` the eigenvalues of ``M`` and
    :math:`\\mu + \\nu = 1`.  The coefficients are stored here so repeated
    evaluations are just two exponentiations.
    """

    lambda1: float
    lambda2: float
    mu: float
    nu: float

    def up_return_probability(self, t) -> np.ndarray:
        """Vectorised :math:`P_{u \\to u}(t)`; accepts scalars or arrays."""
        t = np.asarray(t, dtype=float)
        return self.mu * np.power(self.lambda1, t) + self.nu * np.power(self.lambda2, t)


class MarkovAvailabilityModel(AvailabilityModel):
    """3-state Markov chain availability model.

    Parameters
    ----------
    matrix:
        3x3 right-stochastic matrix; rows/columns ordered (UP, RECLAIMED,
        DOWN).  ``matrix[i, j]`` is the probability of moving from state *i*
        at time *t* to state *j* at time *t + 1*.
    initial_distribution:
        Optional length-3 probability vector for the state at time-slot 0.
        The paper's experiments start every processor in a random state drawn
        from the stationary distribution of the chain; when omitted we use the
        stationary distribution, which is also the least-surprising default
        for steady-state availability processes.
    down_recoverable:
        Whether a DOWN processor may come back (the paper's model allows it —
        a crashed machine is eventually rebooted/repaired).  Pure validation
        flag: when ``True`` (default) we require the chain to be recurrent
        (no absorbing DOWN state) so the stationary distribution exists.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        *,
        initial_distribution: Optional[np.ndarray] = None,
        down_recoverable: bool = True,
    ) -> None:
        self._matrix = check_probability_matrix(matrix, "transition matrix", size=3)
        if down_recoverable and self._matrix[_D, _D] >= 1.0 - 1e-12 and (
            self._matrix[_U, _D] > 0 or self._matrix[_R, _D] > 0
        ):
            raise InvalidModelError(
                "DOWN is absorbing but reachable: the chain is not recurrent; "
                "pass down_recoverable=False to allow an absorbing failure state"
            )
        if initial_distribution is not None:
            initial = np.asarray(initial_distribution, dtype=float)
            if initial.shape != (3,):
                raise InvalidModelError(
                    f"initial_distribution must have shape (3,), got {initial.shape}"
                )
            if np.any(initial < 0) or not np.isclose(initial.sum(), 1.0):
                raise InvalidModelError("initial_distribution must be a probability vector")
            self._initial = initial
        else:
            self._initial = None  # computed lazily from the stationary distribution
        self._spectrum: Optional[_UpReturnSpectrum] = None
        self._stationary: Optional[np.ndarray] = None
        # Cumulative rows for fast inverse-transform sampling (next_state is on
        # the simulator's per-slot hot path; numpy's Generator.choice is far
        # slower than a single uniform draw compared against these thresholds).
        self._cumulative = np.cumsum(self._matrix, axis=1)
        self._cumulative[:, -1] = 1.0
        self._still = _identity_interval(self._cumulative)
        self._cumulative_initial: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def always_up(cls) -> "MarkovAvailabilityModel":
        """A degenerate, perfectly reliable processor (useful in tests)."""
        return cls(np.eye(3), initial_distribution=np.array([1.0, 0.0, 0.0]))

    # ------------------------------------------------------------------
    # AvailabilityModel interface
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """The 3x3 transition matrix (copy; the model itself is immutable)."""
        return self._matrix.copy()

    def markov_approximation(self) -> np.ndarray:
        return self._matrix.copy()

    def initial_state(self, rng: np.random.Generator) -> ProcessorState:
        if self._cumulative_initial is None:
            cumulative = np.cumsum(self.initial_distribution)
            cumulative[-1] = 1.0
            self._cumulative_initial = cumulative
        draw = rng.random()
        index = int(np.searchsorted(self._cumulative_initial, draw, side="right"))
        return ProcessorState(min(index, 2))

    def next_state(
        self, current: ProcessorState, rng: np.random.Generator
    ) -> ProcessorState:
        thresholds = self._cumulative[int(current)]
        draw = rng.random()
        # Unrolled comparison: cheaper than searchsorted for three states.
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
        """Vectorised block sampling via cumulative-probability indexing.

        One uniform draw per slot (the same draws :meth:`next_state` would
        consume) defines, for each slot, a transition *map* over the three
        states: ``map[i]`` is the state reached from state *i* under that
        draw, obtained by comparing the draw against the cumulative row of
        each state.  A draw inside :func:`_identity_interval` leaves every
        state as is, so one interval test finds the slots that can move a
        state; only their maps are built, and the trajectory is their
        running composition applied to *current* (a Hillis–Steele scan,
        forward-filled over the other slots) instead of a Python loop over
        slots.
        """
        if start_slot < 1:
            raise ValueError(f"start_slot must be >= 1, got {start_slot}")
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if horizon == 0:
            return np.empty(0, dtype=np.int8)
        draws = rng.random(horizon)
        moving = self._moving_slots(draws)
        moved = draws[moving][:, None]
        cumulative = self._cumulative
        # maps[k, i] = next state from i under the k-th moving draw.
        maps = (moved >= cumulative[None, :, 0]).astype(np.int8)
        maps += moved >= cumulative[None, :, 1]
        codes = maps[:, 0] + 3 * maps[:, 1] + 9 * maps[:, 2]
        return _scan_moving_codes(horizon, moving, codes, int(current))

    def _moving_slots(self, draws: np.ndarray) -> np.ndarray:
        """Indices of the *draws* outside the identity interval, ascending."""
        low, high = self._still
        return np.flatnonzero((draws < low) | (draws >= high))

    # ------------------------------------------------------------------
    # Derived probabilistic quantities
    # ------------------------------------------------------------------
    @property
    def initial_distribution(self) -> np.ndarray:
        """Distribution of the state at time 0 (stationary by default)."""
        if self._initial is not None:
            return self._initial
        return self.stationary_distribution()

    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution π with ``π P = π`` (cached).

        Computed as the normalised left null-space vector of ``P - I``.  For
        reducible chains (e.g. an absorbing DOWN state) this returns *a*
        stationary distribution.
        """
        if self._stationary is None:
            # Reducible chains (e.g. the degenerate always-UP model) admit many
            # stationary distributions; when the explicit initial distribution
            # is itself stationary, prefer it — it is the distribution the
            # process actually follows.
            if self._initial is not None and np.allclose(
                self._initial @ self._matrix, self._initial, atol=1e-12
            ):
                self._stationary = self._initial.copy()
                return self._stationary.copy()
            # Solve pi (P - I) = 0 with the normalisation sum(pi) = 1 by
            # stacking the normalisation constraint onto the transposed system.
            a = np.vstack([self._matrix.T - np.eye(3), np.ones((1, 3))])
            b = np.array([0.0, 0.0, 0.0, 1.0])
            solution, *_ = np.linalg.lstsq(a, b, rcond=None)
            solution = np.clip(solution, 0.0, None)
            total = solution.sum()
            if total <= 0:
                raise InvalidModelError("failed to compute a stationary distribution")
            self._stationary = solution / total
        return self._stationary.copy()

    def availability(self) -> float:
        """Long-run fraction of time the processor is UP."""
        return float(self.stationary_distribution()[_U])

    def mean_time_to_failure(self) -> float:
        """Expected number of slots before first entering DOWN, starting UP.

        Standard absorbing-chain computation on the ``{UP, RECLAIMED}``
        sub-chain: :math:`\\mathbb{E}[T_d] = (I - M)^{-1} \\mathbf{1}`
        evaluated at the UP entry.  Returns ``inf`` when DOWN is unreachable.
        """
        sub = self.up_reclaimed_submatrix()
        if np.isclose(sub.sum(axis=1), 1.0).all():
            return float("inf")
        fundamental = np.linalg.inv(np.eye(2) - sub)
        expected = fundamental @ np.ones(2)
        return float(expected[0])

    def up_reclaimed_submatrix(self) -> np.ndarray:
        """The 2x2 sub-matrix ``M_q`` over the non-failure states {UP, RECLAIMED}."""
        return self._matrix[np.ix_([_U, _R], [_U, _R])].copy()

    def can_fail(self) -> bool:
        """Whether DOWN is reachable from {UP, RECLAIMED}."""
        return bool(self._matrix[_U, _D] > 0 or self._matrix[_R, _D] > 0)

    # -- Eigen machinery of Theorem 5.1 --------------------------------
    def up_return_spectrum(self) -> _UpReturnSpectrum:
        """Eigen-decomposition of ``M_q`` giving the closed form of P_{u->u}(t)."""
        if self._spectrum is None:
            sub = self.up_reclaimed_submatrix()
            eigenvalues, eigenvectors = np.linalg.eig(sub)
            order = np.argsort(eigenvalues.real)[::-1]
            eigenvalues = eigenvalues[order].real
            eigenvectors = eigenvectors[:, order].real
            lambda1, lambda2 = float(eigenvalues[0]), float(eigenvalues[1])
            if abs(lambda1 - lambda2) < 1e-14:
                # Degenerate case (e.g. diagonal M with equal entries): fall
                # back to mu = (M)[0,0]/lambda1 so that t = 1 is exact; the
                # closed form is then only used for the shared eigenvalue.
                mu = 1.0
                nu = 0.0
            else:
                # P_{u->u}(t) = e_0^T M^t e_0 expressed in the eigenbasis.
                try:
                    inverse = np.linalg.inv(eigenvectors)
                    weights = eigenvectors[0, :] * inverse[:, 0]
                    mu, nu = float(weights[0]), float(weights[1])
                except np.linalg.LinAlgError:  # pragma: no cover - defensive
                    mu, nu = 1.0, 0.0
            self._spectrum = _UpReturnSpectrum(lambda1=lambda1, lambda2=lambda2, mu=mu, nu=nu)
        return self._spectrum

    def up_return_probability(self, t) -> np.ndarray:
        """:math:`P^{(q)}_{u \\xrightarrow{t} u}` for scalar or array *t*.

        Probability that a processor UP at time 0 is UP at time *t* without
        having been DOWN in between.  ``t = 0`` gives 1 by convention.
        """
        spectrum = self.up_return_spectrum()
        values = spectrum.up_return_probability(t)
        # Guard against tiny negative values from the eigen closed form.
        return np.clip(values, 0.0, 1.0)

    def up_return_probabilities(self, horizon: int) -> np.ndarray:
        """Vector ``[P_{u->u}(1), ..., P_{u->u}(horizon)]`` (length *horizon*)."""
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if horizon == 0:
            return np.empty(0)
        return self.up_return_probability(np.arange(1, horizon + 1))

    def no_down_probability(self, t: int) -> float:
        """:math:`P^{(q)}_{ND}(t)`: starting UP, probability of no DOWN within *t* slots.

        Computed on the {UP, RECLAIMED} sub-chain: the probability mass that
        has not leaked into DOWN after *t* steps.
        """
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        if t == 0:
            return 1.0
        sub_power = np.linalg.matrix_power(self.up_reclaimed_submatrix(), int(t))
        return float(np.clip(sub_power[0, :].sum(), 0.0, 1.0))

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def describe(self) -> str:
        p = self._matrix
        return (
            "Markov(p_uu={:.3f}, p_rr={:.3f}, p_dd={:.3f}, availability={:.3f})".format(
                p[_U, _U], p[_R, _R], p[_D, _D], self.availability()
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MarkovAvailabilityModel {self.describe()}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkovAvailabilityModel):
            return NotImplemented
        return np.allclose(self._matrix, other._matrix)

    def __hash__(self) -> int:
        return hash(self._matrix.tobytes())
