"""Small validation helpers shared across the package.

These helpers raise :class:`ValueError`/:class:`TypeError` with uniform,
informative messages.  Domain-specific validation (platform consistency,
configuration feasibility, ...) lives next to the corresponding classes and
raises the richer exceptions of :mod:`repro.exceptions`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "check_positive",
    "check_probability_matrix",
]


def check_positive(value: float, name: str) -> float:
    """Ensure *value* is a finite, strictly positive real number."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_probability_matrix(matrix: np.ndarray, name: str = "matrix",
                             *, atol: float = 1e-9,
                             size: Optional[int] = None) -> np.ndarray:
    """Validate a (right-)stochastic matrix and return it as ``float64``.

    Every entry must lie in ``[0, 1]`` (within *atol*) and every row must sum
    to 1 (within *atol*).  Rows are *not* re-normalised: callers that build
    matrices from user input should normalise explicitly so that rounding is
    visible and intentional.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be a square 2-D matrix, got shape {matrix.shape}")
    if size is not None and matrix.shape[0] != size:
        raise ValueError(
            f"{name} must be {size}x{size}, got {matrix.shape[0]}x{matrix.shape[1]}"
        )
    if np.any(matrix < -atol) or np.any(matrix > 1 + atol):
        raise ValueError(f"{name} has entries outside [0, 1]")
    row_sums = matrix.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=atol):
        raise ValueError(
            f"{name} rows must sum to 1 (got row sums {row_sums.tolist()})"
        )
    return matrix
