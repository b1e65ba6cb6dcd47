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
from typing import Iterable, List, Sequence, Union

import numpy as np

__all__ = [
    "SeedLike",
    "as_generator",
    "derive_run_streams",
    "spawn_generators",
    "spawn_seeds",
    "stable_hash_seed",
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


def derive_run_streams(seed: SeedLike, num_workers: int, *, hazard: bool = False):
    """Derive the per-run generator streams of a simulation run.

    Returns ``(availability_streams, scheduler_stream)``: one independent
    generator per worker plus one for the scheduler, all derived
    deterministically from *seed*.  Every
    :class:`~repro.simulation.blocks.SampledTrace` is fed from this recipe —
    anything that needs to reproduce the exact availability realisation of a
    run for a given seed must derive its streams through this function.

    With ``hazard=True`` a third element is appended to the return value: a
    master stream for the platform-level
    :class:`~repro.hazards.GroupHazardProcess`.  The hazard stream is an
    *additional* ``SeedSequence`` child, so the worker and scheduler streams
    are bit-identical whether or not it is requested — runs on hazard-free
    platforms are unaffected.
    """
    root = as_generator(seed)
    extra = 2 if hazard else 1
    streams = spawn_generators(int(root.integers(0, 2**62)), num_workers + extra)
    if hazard:
        return streams[:num_workers], streams[num_workers], streams[num_workers + 1]
    return streams[:-1], streams[-1]


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


def interleave(streams: Sequence[Iterable]) -> Iterable:
    """Round-robin interleave several iterables (utility for experiments)."""
    iterators = [iter(stream) for stream in streams]
    active = list(iterators)
    while active:
        next_round = []
        for iterator in active:
            try:
                yield next(iterator)
            except StopIteration:
                continue
            next_round.append(iterator)
        active = next_round
