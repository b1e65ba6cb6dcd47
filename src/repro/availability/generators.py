"""Random availability-model generators following Section VII-A.

The paper instantiates its experimental campaign as follows:

    "For each processor Pq, we pick a random value uniformly distributed
     between 0.90 and 0.99 for each P(q)_{x,x} value (for x = u, r, d).
     We then set P(q)_{x,y} to 0.5 x (1 - P(q)_{x,x}), for x != y."

i.e. each diagonal entry (probability of staying in the current state) is
drawn uniformly in [0.90, 0.99] and the remaining mass is split evenly
between the two other states.  This module implements exactly that recipe,
plus a few parameterised variants used by the extension experiments.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.availability.markov import MarkovAvailabilityModel
from repro.availability.model import AvailabilityModel
from repro.exceptions import InvalidModelError
from repro.types import ProcessorState
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "paper_transition_matrix",
    "random_markov_model",
    "random_markov_models",
    "sample_initial_states",
    "sample_state_block",
]


def paper_transition_matrix(
    stay_probabilities: Sequence[float],
) -> np.ndarray:
    """Build the paper's transition matrix from the three diagonal values.

    Parameters
    ----------
    stay_probabilities:
        The three diagonal entries ``(P_uu, P_rr, P_dd)``.  Off-diagonal
        entries are ``(1 - P_xx) / 2`` as prescribed by Section VII-A.
    """
    stay = np.asarray(stay_probabilities, dtype=float)
    if stay.shape != (3,):
        raise InvalidModelError(
            f"expected three stay probabilities (P_uu, P_rr, P_dd), got shape {stay.shape}"
        )
    if np.any(stay < 0) or np.any(stay > 1):
        raise InvalidModelError("stay probabilities must lie in [0, 1]")
    matrix = np.empty((3, 3), dtype=float)
    for i in range(3):
        off = 0.5 * (1.0 - stay[i])
        matrix[i] = off
        matrix[i, i] = stay[i]
    return matrix


def random_markov_model(
    seed: SeedLike = None,
    *,
    stay_low: float = 0.90,
    stay_high: float = 0.99,
) -> MarkovAvailabilityModel:
    """Draw one availability model per the paper's methodology.

    The diagonal entries are i.i.d. uniform in ``[stay_low, stay_high]``
    (defaults match the paper) and the off-diagonal mass is split evenly.
    """
    if not (0.0 <= stay_low <= stay_high <= 1.0):
        raise InvalidModelError(
            f"need 0 <= stay_low <= stay_high <= 1, got [{stay_low}, {stay_high}]"
        )
    rng = as_generator(seed)
    stay = rng.uniform(stay_low, stay_high, size=3)
    return MarkovAvailabilityModel(paper_transition_matrix(stay))


def random_markov_models(
    count: int,
    seed: SeedLike = None,
    *,
    stay_low: float = 0.90,
    stay_high: float = 0.99,
) -> List[MarkovAvailabilityModel]:
    """Draw *count* independent models (one per processor of a platform)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = as_generator(seed)
    return [
        random_markov_model(rng, stay_low=stay_low, stay_high=stay_high)
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# Batch sampling across a platform's worth of models
# ----------------------------------------------------------------------
def sample_initial_states(
    models: Sequence[AvailabilityModel],
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Reset every model and draw the slot-0 state column (``int8``, one per model).

    Consumes each model's generator exactly like
    :meth:`~repro.availability.model.AvailabilityModel.initial_state` does,
    so trajectories continued with :func:`sample_state_block` replay the
    realisation a simulation run with the same streams would see.
    """
    if len(models) != len(rngs):
        raise ValueError(f"got {len(models)} models but {len(rngs)} generators")
    column = np.empty(len(models), dtype=np.int8)
    for index, (model, rng) in enumerate(zip(models, rngs)):
        model.reset()
        column[index] = int(model.initial_state(rng))
    return column


def sample_state_block(
    models: Sequence[AvailabilityModel],
    start_slot: int,
    horizon: int,
    rngs: Sequence[np.random.Generator],
    current: np.ndarray,
) -> np.ndarray:
    """Sample an ``(len(models), horizon)`` state block for slots ``[start, start + horizon)``.

    *current* is the state column at ``start_slot - 1``.  Each model consumes
    only its own generator, so the block decomposition (chunk size, number of
    calls) has no effect on the realisation.
    """
    if len(models) != len(rngs):
        raise ValueError(f"got {len(models)} models but {len(rngs)} generators")
    block = np.empty((len(models), horizon), dtype=np.int8)
    for index, (model, rng) in enumerate(zip(models, rngs)):
        block[index] = model.sample_block(
            start_slot, horizon, rng, current=ProcessorState(int(current[index]))
        )
    return block
