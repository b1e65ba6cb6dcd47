"""Platform factories, including the paper's experimental methodology.

Section VII-A instantiates platforms as follows:

* ``p = 20`` processors;
* per-processor Markov availability with diagonal entries uniform in
  ``[0.90, 0.99]`` and off-diagonal mass split evenly;
* per-processor speed ``w_q`` uniform (integer) in ``[wmin, 10 * wmin]``;
* ``Tdata = wmin`` (the fastest possible processor has a
  computation-to-communication ratio of 1);
* ``Tprog = 5 * wmin`` (the program is five times larger than a task input);
* ``ncom ∈ {5, 10, 20}``.

The paper does not state a memory bound for its experiments; since each
iteration has at most ``m = 10`` tasks and any worker may in principle hold
several, we default ``µ_q = m`` (equivalent to the unconstrained ``µ = ∞``
variant).  The bound is exposed so experiments may restrict it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.availability.generators import random_markov_models
from repro.availability.markov import MarkovAvailabilityModel
from repro.availability.model import AvailabilityModel
from repro.exceptions import InvalidPlatformError
from repro.platform.platform import Platform
from repro.platform.processor import Processor
from repro.utils.rng import SeedLike, as_generator

__all__ = ["PlatformSpec", "paper_platform", "availability_platform", "uniform_platform"]


@dataclass(frozen=True)
class PlatformSpec:
    """Parameters of a paper-style random platform.

    Attributes mirror the experimental knobs of Section VII-A; see the module
    docstring for their meaning.  ``capacity`` is the per-processor memory
    bound ``µ_q`` (``None`` means "use the number of tasks m", i.e. the
    unconstrained case).
    """

    num_processors: int = 20
    ncom: int = 10
    wmin: int = 1
    speed_factor: int = 10
    tdata_factor: int = 1
    tprog_factor: int = 5
    stay_low: float = 0.90
    stay_high: float = 0.99
    capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_processors < 1:
            raise InvalidPlatformError("num_processors must be >= 1")
        if self.ncom < 1:
            raise InvalidPlatformError("ncom must be >= 1")
        if self.wmin < 1:
            raise InvalidPlatformError("wmin must be >= 1")
        if self.speed_factor < 1:
            raise InvalidPlatformError("speed_factor must be >= 1")
        if self.tdata_factor < 0 or self.tprog_factor < 0:
            raise InvalidPlatformError("tdata_factor/tprog_factor must be >= 0")

    @property
    def tdata(self) -> int:
        return self.tdata_factor * self.wmin

    @property
    def tprog(self) -> int:
        return self.tprog_factor * self.wmin


def paper_platform(
    spec: PlatformSpec = PlatformSpec(),
    *,
    num_tasks: int,
    seed: SeedLike = None,
) -> Platform:
    """Generate a random platform following the paper's methodology.

    Parameters
    ----------
    spec:
        The platform parameters (defaults are the paper's).
    num_tasks:
        ``m`` — used only to set the default memory bound ``µ_q = m`` when
        ``spec.capacity`` is ``None``.
    seed:
        Seed / generator controlling both the availability models and the
        speeds.
    """

    def markov_models(rng, count):
        return random_markov_models(
            count, rng, stay_low=spec.stay_low, stay_high=spec.stay_high
        )

    return availability_platform(
        spec, num_tasks=num_tasks, seed=seed, model_factory=markov_models
    )


def availability_platform(
    spec: PlatformSpec,
    *,
    num_tasks: int,
    seed: SeedLike = None,
    model_factory,
) -> Platform:
    """A paper-style platform with arbitrary availability models.

    The one platform draw: availability models first, speeds second, from
    the same seeded generator, with model construction delegated to
    ``model_factory(rng, count)``, which must return one
    :class:`AvailabilityModel` per processor.  :func:`paper_platform` is
    this draw with Markov models; other factories let declarative campaign
    specs swap the Markov substrate for semi-Markov, diurnal or trace-replay
    models while keeping the speed / capacity / communication methodology of
    Section VII-A.

    A factory may additionally carry a ``hazard_factory`` attribute (a
    callable ``num_workers -> GroupHazardProcess``); the built process is
    attached to the platform as its :attr:`~repro.platform.Platform.hazard`
    overlay.  Hazard construction happens *after* the model and speed draws
    and consumes no RNG, so hazard-free substrates keep bit-identical
    platforms.
    """
    if num_tasks < 1:
        raise InvalidPlatformError("num_tasks must be >= 1")
    rng = as_generator(seed)
    models = model_factory(rng, spec.num_processors)
    if len(models) != spec.num_processors:
        raise InvalidPlatformError(
            f"model_factory returned {len(models)} models for {spec.num_processors} processors"
        )
    # Speeds w_q uniform integer in [wmin, 10 * wmin] (inclusive bounds).
    speeds = rng.integers(spec.wmin, spec.speed_factor * spec.wmin + 1, size=spec.num_processors)
    capacity = spec.capacity if spec.capacity is not None else num_tasks
    processors = [
        Processor(speed=int(speed), capacity=int(capacity), availability=model)
        for speed, model in zip(speeds, models)
    ]
    hazard_factory = getattr(model_factory, "hazard_factory", None)
    hazard = hazard_factory(spec.num_processors) if hazard_factory is not None else None
    return Platform(
        processors, ncom=spec.ncom, tprog=spec.tprog, tdata=spec.tdata, hazard=hazard
    )


def uniform_platform(
    num_processors: int,
    *,
    speed: int = 1,
    capacity: int = 1,
    ncom: Optional[int] = None,
    tprog: int = 0,
    tdata: int = 0,
    availability: Optional[AvailabilityModel] = None,
    availabilities: Optional[Sequence[AvailabilityModel]] = None,
) -> Platform:
    """A homogeneous platform, handy for tests and worked examples.

    Either a single shared ``availability`` model, a per-processor
    ``availabilities`` sequence, or neither (perfectly reliable processors)
    may be given.  ``ncom`` defaults to the number of processors (i.e. no
    effective communication constraint).
    """
    if num_processors < 1:
        raise InvalidPlatformError("num_processors must be >= 1")
    if availability is not None and availabilities is not None:
        raise InvalidPlatformError("pass either availability or availabilities, not both")
    if availabilities is not None:
        if len(availabilities) != num_processors:
            raise InvalidPlatformError(
                f"expected {num_processors} availability models, got {len(availabilities)}"
            )
        models: List[AvailabilityModel] = list(availabilities)
    elif availability is not None:
        models = [availability] * num_processors
    else:
        models = [MarkovAvailabilityModel.always_up() for _ in range(num_processors)]
    processors = [
        Processor(speed=speed, capacity=capacity, availability=model) for model in models
    ]
    return Platform(
        processors,
        ncom=ncom if ncom is not None else num_processors,
        tprog=tprog,
        tdata=tdata,
    )
