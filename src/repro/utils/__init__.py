"""Shared utilities: RNG management, validation helpers, text tables."""

from repro.utils.rng import (
    SeedLike,
    as_generator,
    spawn_generators,
    spawn_seeds,
    stable_hash_seed,
)
from repro.utils.tables import format_table
from repro.utils.validation import (
    check_positive,
    check_probability_matrix,
)

__all__ = [
    "SeedLike",
    "as_generator",
    "spawn_generators",
    "spawn_seeds",
    "stable_hash_seed",
    "format_table",
    "check_positive",
    "check_probability_matrix",
]
