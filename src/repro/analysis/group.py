"""Group-level quantities of Theorem 5.1.

Given a set ``S`` of workers all UP at the current slot and a workload of
``W`` slots of *simultaneous* computation, Section V-A derives (under the
Markov availability model):

* ``Eu(S) = Σ_{t>0} P^{(S)}_{u →t u}`` — the expected number of future slots
  at which all workers of ``S`` are simultaneously UP before any of them goes
  DOWN, where ``P^{(S)}_{u →t u} = Π_q P^{(q)}_{u →t u}``;
* ``A(S) = Σ_{t>0} t · P^{(S)}_{u →t u}``;
* ``P₊^(S) = Eu(S) / (1 + Eu(S))`` — the probability that all workers are
  simultaneously UP again before any failure (1 when no worker can fail);
* ``E_c^(S) = A(S)(1 − P₊^(S)) / (1 + Eu(S))`` — the paper's (unnormalised)
  first-return quantity ``Σ_t t · P₊^(S)(t)``;
* ``E^(S)(W)`` — the expected completion time of a ``W``-slot workload,
  conditioned on success.

Both series are truncated at a horizon ``T`` chosen from the paper's tail
bounds so the truncation error is below ``ε`` (fully polynomial
approximation): with ``Λ = Π_q λ₁^{(q)}``,

* ``Σ_{t ≥ T} P^{(S)}_{u→u}(t) ≤ Λ^T / (1 − Λ) ≤ ε`` as soon as
  ``T ≥ ln(ε (1 − Λ)) / ln Λ``;
* ``Σ_{t ≥ T} t · P^{(S)}_{u→u}(t) ≤ Λ^T (T / (1 − Λ) + Λ / (1 − Λ)²) ≤ ε``.

Two estimators of ``E^(S)(W)`` are provided (see ``ExpectationMode``):

* ``PAPER`` — the paper's formula
  ``E(W) = (1 + (W − 1) E_c) / P₊^{W−1}``;
* ``RENEWAL`` — the strict renewal-argument conditional expectation
  ``E(W) = 1 + (W − 1) E_c / P₊`` (the two coincide when ``P₊ = 1``).

The ablation benchmark ``benchmarks/bench_ablation_estimator.py`` compares
the heuristic rankings obtained under each estimator.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Sequence

import numpy as np

from repro.analysis.single import WorkerAnalysis

__all__ = ["ExpectationMode", "GroupQuantities", "GroupAnalysis", "truncation_horizon"]

#: Hard ceiling on the truncation horizon, protecting against nearly-reliable
#: worker sets for which the tail bound would demand astronomically many terms.
DEFAULT_MAX_HORIZON = 200_000

#: Smallest failure "leak" below which a worker set is treated as unable to fail.
_NO_FAILURE_TOLERANCE = 1e-15


class ExpectationMode(enum.Enum):
    """Which estimator of ``E^(S)(W)`` to use (see module docstring)."""

    PAPER = "paper"
    RENEWAL = "renewal"


def truncation_horizon(dominant_eigenvalue: float, epsilon: float,
                       *, max_horizon: int = DEFAULT_MAX_HORIZON) -> int:
    """Truncation horizon ``T`` for the series of Theorem 5.1.

    Satisfies both tail bounds (for ``Eu`` and for ``A``) given the product
    ``Λ`` of the dominant eigenvalues, capping the result at *max_horizon*.
    """
    if not (0.0 < epsilon):
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    lam = float(dominant_eigenvalue)
    if lam <= 0.0:
        return 1
    if lam >= 1.0:
        return max_horizon
    # Bound for Eu: Λ^T / (1 - Λ) <= ε.
    horizon = math.log(epsilon * (1.0 - lam)) / math.log(lam)
    horizon = max(1, int(math.ceil(horizon)))
    # Bound for A: Λ^T (T / (1-Λ) + Λ / (1-Λ)^2) <= ε — grow T until satisfied.
    one_minus = 1.0 - lam
    while horizon < max_horizon:
        tail = lam**horizon * (horizon / one_minus + lam / one_minus**2)
        if tail <= epsilon:
            break
        horizon = min(max_horizon, horizon * 2)
    return min(horizon, max_horizon)


@dataclass(frozen=True)
class GroupQuantities:
    """The Theorem 5.1 quantities for one worker set ``S``.

    Attributes
    ----------
    eu:
        ``Eu(S)`` (may be ``inf`` when no worker can fail).
    a:
        ``A(S)`` (may be ``inf`` when no worker can fail).
    p_plus:
        ``P₊^(S)`` — probability of all being simultaneously UP again before
        any failure.
    e_c:
        ``E_c^(S)`` — the paper's unnormalised first-return sum
        ``Σ_t t·P₊(t)``; equals the mean recurrence time of the all-UP state
        when no worker can fail.
    horizon:
        Truncation horizon actually used (0 for the closed-form no-failure
        case).
    can_fail:
        Whether at least one worker of the set can go DOWN.
    """

    eu: float
    a: float
    p_plus: float
    e_c: float
    horizon: int
    can_fail: bool

    # ------------------------------------------------------------------
    def success_probability(self, workload: int) -> float:
        """Probability that a *workload*-slot computation completes with no failure.

        The first slot executes immediately (all workers are UP now); each of
        the remaining ``W − 1`` slots requires a successful "simultaneously UP
        again before any failure" event of probability ``P₊`` (renewal
        argument), hence ``P₊^{W−1}``.
        """
        if workload < 0:
            raise ValueError(f"workload must be >= 0, got {workload}")
        if workload <= 1:
            return 1.0
        return float(self.p_plus ** (workload - 1))

    def expected_time(self, workload: int,
                      mode: ExpectationMode = ExpectationMode.PAPER) -> float:
        """``E^(S)(W)`` — expected slots to finish *workload*, conditioned on success."""
        if workload < 0:
            raise ValueError(f"workload must be >= 0, got {workload}")
        if workload == 0:
            return 0.0
        if workload == 1:
            return 1.0
        if self.p_plus <= 0.0:
            return math.inf
        extra = workload - 1
        if mode is ExpectationMode.PAPER:
            return float((1.0 + extra * self.e_c) / (self.p_plus**extra))
        if mode is ExpectationMode.RENEWAL:
            return float(1.0 + extra * self.e_c / self.p_plus)
        raise ValueError(f"unknown expectation mode {mode!r}")


class GroupAnalysis:
    """Computes and caches :class:`GroupQuantities` for worker sets.

    Parameters
    ----------
    workers:
        Per-worker analysis objects, indexed by worker id (position in the
        sequence = worker id).
    epsilon:
        Target precision of the truncated series (Theorem 5.1).
    max_horizon:
        Hard cap on the truncation horizon.
    """

    def __init__(
        self,
        workers: Sequence[WorkerAnalysis],
        *,
        epsilon: float = 1e-6,
        max_horizon: int = DEFAULT_MAX_HORIZON,
    ) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        if max_horizon < 1:
            raise ValueError(f"max_horizon must be >= 1, got {max_horizon}")
        self._workers = list(workers)
        self._can_fail = [analysis.can_fail() for analysis in self._workers]
        self._lambda1 = [analysis.lambda1 for analysis in self._workers]
        # t = 1, 2, ... as floats, grown like the workers' series arrays.
        self._t_values = np.empty(0)
        self.epsilon = float(epsilon)
        self.max_horizon = int(max_horizon)
        self._cache: Dict[FrozenSet[int], GroupQuantities] = {}

    # ------------------------------------------------------------------
    def worker(self, worker_id: int) -> WorkerAnalysis:
        return self._workers[worker_id]

    # ------------------------------------------------------------------
    def quantities(self, workers: Iterable[int]) -> GroupQuantities:
        """The Theorem 5.1 quantities for the worker set *workers* (cached)."""
        key = workers if type(workers) is frozenset else frozenset(int(w) for w in workers)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._compute(key)
            self._cache[key] = cached
        return cached

    def prefetch(self, sets: Sequence[Iterable[int]]) -> None:
        """Ensure every set of *sets* is cached.

        The entry point of the per-slot hot paths: when every candidate of a
        frontier is already cached (the steady state of a long simulation)
        this is a dictionary sweep with no allocation, and the few misses a
        slot brings are computed one set at a time by the same kernel as
        :meth:`quantities`.
        """
        cache = self._cache
        for workers in sets:
            key = (
                workers
                if type(workers) is frozenset
                else frozenset(int(w) for w in workers)
            )
            if key not in cache:
                cache[key] = self._compute(key)

    # ------------------------------------------------------------------
    def _compute(self, workers: FrozenSet[int]) -> GroupQuantities:
        if not workers:
            # Empty set: "all workers UP" holds vacuously at every slot.
            return GroupQuantities(
                eu=math.inf, a=math.inf, p_plus=1.0, e_c=1.0, horizon=0, can_fail=False
            )
        for worker_id in workers:
            if worker_id < 0 or worker_id >= len(self._workers):
                raise IndexError(
                    f"worker id {worker_id} out of range for {len(self._workers)} workers"
                )
        ordered = sorted(workers)
        can_fail = self._can_fail
        if not any(can_fail[worker_id] for worker_id in ordered):
            return self._compute_no_failure([self._workers[w] for w in ordered])
        return self._compute_with_failures(ordered)

    def _compute_no_failure(self, analyses: Sequence[WorkerAnalysis]) -> GroupQuantities:
        """Closed form when no worker of the set can go DOWN.

        ``P₊ = 1`` and, by Kac's recurrence-time formula applied to the joint
        chain restricted to {UP, RECLAIMED} states, the mean time between
        consecutive all-UP slots is the inverse of the stationary probability
        of the all-UP joint state.
        """
        stationary_all_up = 1.0
        for analysis in analyses:
            stationary_all_up *= analysis.up_stationary_no_failure()
        if stationary_all_up <= 0.0:
            # Degenerate: some worker is never UP in steady state; the
            # workload can start (workers are UP now) but the expected wait
            # for the next simultaneous UP slot is unbounded.
            e_c = math.inf
        else:
            e_c = 1.0 / stationary_all_up
        return GroupQuantities(
            eu=math.inf, a=math.inf, p_plus=1.0, e_c=e_c, horizon=0, can_fail=False
        )

    def _compute_with_failures(self, ordered: Sequence[int]) -> GroupQuantities:
        """The truncated series for the ascending worker ids *ordered*."""
        lam_product = 1.0
        lambda1 = self._lambda1
        for worker_id in ordered:
            lam_product *= lambda1[worker_id]
        lam_product = min(lam_product, 1.0 - _NO_FAILURE_TOLERANCE)
        horizon = truncation_horizon(lam_product, self.epsilon, max_horizon=self.max_horizon)

        # P^{(S)}_{u->u}(t) = Π_q P^{(q)}_{u->u}(t), vectorised over t = 1..T.
        # The product starts from the first factor (1.0 · x == x exactly) and
        # is only written to once it is a fresh array.
        arrays = [self._workers[worker_id].up_return_array(horizon) for worker_id in ordered]
        product = arrays[0]
        if len(arrays) > 1:
            product = product * arrays[1]
            for array in arrays[2:]:
                product *= array
        if horizon > self._t_values.size:
            grown = max(horizon, (self._t_values.size * 3) // 2)
            self._t_values = np.arange(1, grown + 1, dtype=float)
        t_values = self._t_values[:horizon]
        eu = float(product.sum())
        a = float((t_values * product).sum())

        p_plus = eu / (1.0 + eu)
        e_c = a * (1.0 - p_plus) / (1.0 + eu)
        return GroupQuantities(
            eu=eu, a=a, p_plus=p_plus, e_c=e_c, horizon=horizon, can_fail=True
        )

    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        self._cache.clear()

    def cache_size(self) -> int:
        return len(self._cache)
