"""Random-number-generation helpers.

Every stochastic component of the library (availability sampling, platform
generation, scheduler tie-breaking, experiment campaigns) takes explicit
seeds and converts them into independent :class:`numpy.random.Generator`
streams through :class:`numpy.random.SeedSequence`.  This guarantees that

* every experiment in the reproduction is exactly repeatable, and
* parallel workers (``multiprocessing`` fan-out in the campaign runner) use
  statistically independent streams even though they share a root seed.
"""

from __future__ import annotations

import hashlib
from typing import List, Union

import numpy as np

__all__ = [
    "SeedLike",
    "as_generator",
    "hazard_stream",
    "run_entropy",
    "scheduler_stream",
    "spawn_generators",
    "spawn_seeds",
    "stable_hash_seed",
    "worker_streams",
]

#: Anything accepted as a seed by the helpers in this module.
SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``None`` yields a non-deterministic generator; an ``int`` or a
    :class:`numpy.random.SeedSequence` yields a deterministic one; an existing
    generator is returned unchanged (allowing callers to thread a single
    stream through several components).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_seeds(seed: SeedLike, count: int) -> List[np.random.SeedSequence]:
    """Spawn *count* independent child :class:`SeedSequence` objects.

    Passing a :class:`numpy.random.Generator` is rejected because a generator
    does not expose its seed sequence portably; campaigns should keep seeds
    as integers until the last moment.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if isinstance(seed, np.random.Generator):
        raise TypeError("spawn_seeds requires an int or SeedSequence, not a Generator")
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return list(root.spawn(count))


def spawn_generators(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Spawn *count* independent generators derived from *seed*."""
    return [np.random.default_rng(child) for child in spawn_seeds(seed, count)]


def run_entropy(seed: SeedLike) -> int:
    """Draw the entropy every stream of one simulation run is spawned from.

    This is the run's one draw from *seed*: an ``int`` seed always maps to
    the same entropy, while a :class:`numpy.random.Generator` seed advances
    by one integer.  The streams of the run are the children of
    ``SeedSequence(entropy)``: one per worker (indices ``0 .. m-1``), then
    the scheduler's (``m``), then the platform hazard's (``m + 1``).  Adding
    the hazard child changes no other stream, so runs on hazard-free
    platforms never depend on it.
    """
    return int(as_generator(seed).integers(0, 2**62))


def worker_streams(entropy: int, num_workers: int) -> List[np.random.Generator]:
    """The run's per-worker availability streams (children ``0 .. m-1``)."""
    return spawn_generators(entropy, num_workers)


def scheduler_stream(entropy: int, num_workers: int) -> np.random.Generator:
    """The run's scheduler tie-breaking stream (child ``m``)."""
    return _run_child(entropy, num_workers)


def hazard_stream(entropy: int, num_workers: int) -> np.random.Generator:
    """The master stream of the platform's hazard overlay (child ``m + 1``)."""
    return _run_child(entropy, num_workers + 1)


def _run_child(entropy: int, index: int) -> np.random.Generator:
    # Bit-identical to SeedSequence(entropy).spawn(index + 1)[index].
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(index,)))


def stable_hash_seed(*parts: Union[str, int, float]) -> int:
    """Derive a stable 63-bit seed from arbitrary labelled parts.

    Used by the experiment harness to derive per-instance seeds from
    human-readable coordinates such as ``("table1", m, ncom, wmin, scenario,
    trial)`` so that a single instance can be re-run in isolation and produce
    exactly the same realisation as it did inside the full campaign.
    """
    if not parts:
        raise ValueError("at least one part is required")
    payload = "\x1f".join(_canonical_part(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


def _canonical_part(part: Union[str, int, float]) -> str:
    if isinstance(part, bool):  # bool is an int subclass; be explicit
        return f"b:{int(part)}"
    if isinstance(part, int):
        return f"i:{part}"
    if isinstance(part, float):
        return f"f:{part!r}"
    if isinstance(part, str):
        return f"s:{part}"
    raise TypeError(f"unsupported seed part type: {type(part).__name__}")
