"""Per-processor spectral quantities used by the Theorem 5.1 machinery.

For each processor the proof of Theorem 5.1 only ever looks at the 2x2
restriction ``M_q`` of the Markov chain to the non-failure states
``{UP, RECLAIMED}``:

* ``P^{(q)}_{u →t u} = (M_q^t)[0, 0]`` — UP again at *t* with no DOWN in
  between — has the closed form ``µ λ₁^t + ν λ₂^t``;
* ``P^{(q)}_{ND}(t) = Σ_j (M_q^t)[0, j]`` — no DOWN within *t* slots — has an
  analogous closed form with different coefficients;
* ``λ₁`` (the spectral radius of ``M_q``) drives the truncation horizon of
  the series of Theorem 5.1.

:class:`WorkerAnalysis` wraps one processor and memoises growing arrays of
these quantities so that the group-level computations (products over the
workers of a set) are simple vectorised NumPy products.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.availability.markov import MarkovAvailabilityModel

__all__ = ["WorkerAnalysis"]


class WorkerAnalysis:
    """Cached per-processor quantities for the analysis of Section V.

    Parameters
    ----------
    model:
        The processor's Markov availability model (or Markov approximation).
    speed:
        The processor's speed ``w_q``; carried along purely for convenience
        so scheduler code can work from the analysis object alone.
    capacity:
        The processor's memory bound ``µ_q`` (same convenience purpose).
    """

    def __init__(
        self,
        model: MarkovAvailabilityModel,
        *,
        speed: int = 1,
        capacity: int = 1,
    ) -> None:
        self.model = model
        self.speed = int(speed)
        self.capacity = int(capacity)
        spectrum = model.up_return_spectrum()
        self.lambda1 = float(min(max(spectrum.lambda1, 0.0), 1.0))
        self._spectrum = spectrum
        # Closed-form coefficients of the no-DOWN probability
        #   P_ND(t) = a1 * λ1^t + a2 * λ2^t
        self._nd_coefficients = self._compute_nd_coefficients()
        # Cached array P_{u->u}(t) for t = 1..len(cache), and memoised P_ND(t).
        self._up_return_cache = np.empty(0)
        self._no_down_scalar: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def _compute_nd_coefficients(self) -> Optional[np.ndarray]:
        """Coefficients (a1, a2) of the eigen closed form of P_ND, or None.

        Returns ``None`` when the sub-chain is defective (repeated eigenvalue
        with a non-diagonalisable matrix); in that case exact matrix powers
        are used instead.
        """
        sub = self.model.up_reclaimed_submatrix()
        eigenvalues, eigenvectors = np.linalg.eig(sub)
        order = np.argsort(eigenvalues.real)[::-1]
        eigenvalues = eigenvalues[order]
        eigenvectors = eigenvectors[:, order]
        if abs(eigenvalues[0].real - eigenvalues[1].real) < 1e-12:
            return None
        try:
            inverse = np.linalg.inv(eigenvectors)
        except np.linalg.LinAlgError:  # pragma: no cover - defensive
            return None
        ones = np.ones(2)
        coefficients = eigenvectors[0, :] * (inverse @ ones)
        self._nd_eigenvalues = eigenvalues.real
        return coefficients.real

    # ------------------------------------------------------------------
    # P_{u ->t u}
    # ------------------------------------------------------------------
    def up_return_array(self, horizon: int) -> np.ndarray:
        """Array ``[P_{u->u}(1), ..., P_{u->u}(horizon)]`` (cached, grows).

        The cache over-allocates geometrically: group evaluations ask for
        many nearby horizons (one per candidate set's Λ), and the per-``t``
        closed form makes any longer array's prefix identical, so growing in
        1.5x steps avoids recomputing the series once per new horizon.
        """
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if horizon > self._up_return_cache.size:
            grown = max(horizon, (self._up_return_cache.size * 3) // 2)
            self._up_return_cache = self.model.up_return_probabilities(grown)
        return self._up_return_cache[:horizon]

    # ------------------------------------------------------------------
    # P_ND — probability of not going DOWN within t slots (starting UP)
    # ------------------------------------------------------------------
    def no_down_probability(self, t: int) -> float:
        """Scalar ``P_ND(t)`` — memoised (accepts any non-negative integer)."""
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        if t == 0:
            return 1.0
        cached = self._no_down_scalar.get(t)
        if cached is None:
            if self._nd_coefficients is not None:
                value = (
                    self._nd_coefficients[0] * self._nd_eigenvalues[0] ** t
                    + self._nd_coefficients[1] * self._nd_eigenvalues[1] ** t
                )
                cached = float(np.clip(value, 0.0, 1.0))
            else:
                cached = self.model.no_down_probability(t)
            self._no_down_scalar[t] = cached
        return cached

    # ------------------------------------------------------------------
    def can_fail(self) -> bool:
        """Whether this processor has a non-zero probability of going DOWN."""
        return self.model.can_fail()

    def up_stationary_no_failure(self) -> float:
        """Stationary probability of UP in the {UP, RECLAIMED} sub-chain.

        Only meaningful when the processor cannot fail; used by the Kac-formula
        special case of the group analysis (mean recurrence time of the
        all-UP state is the inverse of its stationary probability).
        """
        sub = self.model.up_reclaimed_submatrix()
        # Solve pi M = pi on the 2-state chain.
        p_ur = sub[0, 1]
        p_ru = sub[1, 0]
        if p_ur + p_ru == 0:
            return 1.0  # the processor never leaves UP
        return p_ru / (p_ur + p_ru)
