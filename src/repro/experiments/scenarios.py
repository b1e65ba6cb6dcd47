"""Experimental scenarios following Section VII-A.

An *experimental scenario* is one random instantiation of a platform for a
given cell ``(m, ncom, wmin)`` of the campaign grid:

* 20 processors, Markov availability with stay-probabilities uniform in
  [0.90, 0.99] and the remaining mass split evenly;
* speeds ``w_q`` uniform integers in ``[wmin, 10 · wmin]``;
* ``Tdata = wmin``, ``Tprog = 5 · wmin``.

Each scenario is then simulated for several *trials*, each trial being a
different realisation of the Markov chains (different seed) but the same
platform.  Every seed is derived deterministically from the campaign label
and the scenario coordinates, so any individual instance can be re-run in
isolation and reproduce the in-campaign realisation exactly.
:meth:`~repro.experiments.spec.CampaignSpec.scenarios` enumerates a
campaign's grid of scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

from repro.application.application import Application
from repro.availability.registry import AVAILABILITY_MODELS, model_factory_for
from repro.exceptions import ExperimentError
from repro.platform.builders import PlatformSpec, availability_platform
from repro.platform.platform import Platform
from repro.utils.rng import SeedLike, stable_hash_seed

__all__ = [
    "AvailabilitySpec",
    "ScenarioParameters",
    "ExperimentScenario",
    "build_platform",
]

#: Availability substrates a scenario can request (snapshot of the registry
#: at import time; the registry itself is the live source of truth).
AVAILABILITY_KINDS = tuple(AVAILABILITY_MODELS.names())

#: Parameter values: a scalar (used as-is), a two-element range (drawn
#: uniformly per processor), or a string (paths, labels).
ParamValue = Union[int, float, str, bool, Tuple[float, ...]]


@dataclass(frozen=True)
class AvailabilitySpec:
    """Declarative choice of availability substrate for a scenario.

    ``kind`` selects the model family — any name registered in
    :data:`repro.availability.registry.AVAILABILITY_MODELS`; ``parameters``
    holds the family's knobs as a sorted tuple of ``(name, value)`` pairs so
    the spec is hashable and canonically serialisable.  Parameter names are
    validated against the registered model's catalogue.  Numeric two-element
    ranges are drawn uniformly *per processor* from the scenario's platform
    seed, which keeps every platform deterministic in ``(campaign,
    scenario)`` exactly like the paper's Markov grid.

    The default (Markov, paper parameters) reproduces Section VII-A
    bit-for-bit: its registry factory draws exactly what
    :func:`~repro.platform.builders.paper_platform` draws.
    """

    kind: str = "markov"
    parameters: Tuple[Tuple[str, ParamValue], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in AVAILABILITY_MODELS:
            raise ExperimentError(
                f"unknown availability kind {self.kind!r}; expected one of "
                f"{tuple(AVAILABILITY_MODELS.names())}"
            )
        info = AVAILABILITY_MODELS.get(self.kind)
        normalised = []
        seen = set()
        for name, value in sorted(self.parameters):
            parameter = info.parameter(str(name))
            if parameter is None:
                raise ExperimentError(
                    f"availability kind {self.kind!r} has no parameter {name!r} "
                    f"(accepted: {[p.name for p in info.parameters]})"
                )
            # Store the registered spelling so case/alias variants both
            # canonicalize and reach the builders' exact-match get() calls.
            name = parameter.name
            if name in seen:
                raise ExperimentError(
                    f"availability parameter {name!r} given more than once"
                )
            seen.add(name)
            if isinstance(value, list):
                value = tuple(value)
            if isinstance(value, tuple):
                if len(value) != 2 or not all(isinstance(v, (int, float)) for v in value):
                    raise ExperimentError(
                        f"availability parameter {name!r}: "
                        f"ranges must be two numbers, got {value!r}"
                    )
                value = (float(value[0]), float(value[1]))
            elif not isinstance(value, (int, float, str, bool)):
                raise ExperimentError(
                    f"availability parameter {name!r} has unsupported type {type(value).__name__}"
                )
            normalised.append((name, value))
        normalised.sort(key=lambda pair: pair[0])
        object.__setattr__(self, "parameters", tuple(normalised))
        missing = [p.name for p in info.parameters if p.required and self.get(p.name) is None]
        if missing:
            raise ExperimentError(
                f"availability kind {self.kind!r} requires a {missing[0]!r} parameter"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, payload: Mapping) -> "AvailabilitySpec":
        """Build from a spec-file mapping such as ``{"kind": "markov", ...}``."""
        data = dict(payload)
        kind = str(data.pop("kind", "markov"))
        return cls(kind=kind, parameters=tuple(data.items()))

    def get(self, name: str, default: Optional[ParamValue] = None) -> Optional[ParamValue]:
        for key, value in self.parameters:
            if key == name:
                return value
        return default

    def as_dict(self) -> dict:
        payload = {"kind": self.kind}
        for name, value in self.parameters:
            payload[name] = list(value) if isinstance(value, tuple) else value
        return payload

    def is_default_markov(self) -> bool:
        return self.kind == "markov" and not self.parameters


@dataclass(frozen=True)
class ScenarioParameters:
    """One cell of the experimental grid."""

    m: int
    ncom: int
    wmin: int
    num_processors: int = 20

    def __post_init__(self) -> None:
        for name in ("m", "ncom", "wmin", "num_processors"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ExperimentError(f"{name} must be a positive integer, got {value!r}")

    def platform_spec(self) -> PlatformSpec:
        return PlatformSpec(
            num_processors=self.num_processors, ncom=self.ncom, wmin=self.wmin
        )

    def label(self) -> str:
        return f"m{self.m}_ncom{self.ncom}_wmin{self.wmin}"


@dataclass(frozen=True)
class ExperimentScenario:
    """One random platform instantiation for a grid cell.

    ``availability`` selects the availability substrate; ``None`` (the
    default) is the paper's Markov recipe and keeps every seed and platform
    bit-identical to the pre-spec harness.
    """

    params: ScenarioParameters
    scenario_index: int
    campaign: str = "campaign"
    availability: Optional[AvailabilitySpec] = None

    # ------------------------------------------------------------------
    def platform_seed(self) -> int:
        return stable_hash_seed(self.campaign, "platform", self.params.label(), self.scenario_index)

    def trial_seed(self, trial: int) -> int:
        return stable_hash_seed(
            self.campaign, "trial", self.params.label(), self.scenario_index, int(trial)
        )

    def build_platform(self) -> Platform:
        """Materialise the scenario's platform (deterministic in the seed)."""
        return build_platform(self.params, self.availability, seed=self.platform_seed())

    def build_application(self, iterations: int = 10) -> Application:
        return Application(
            tasks_per_iteration=self.params.m,
            iterations=iterations,
            name=f"{self.params.label()}_s{self.scenario_index}",
        )

    def label(self) -> str:
        return f"{self.params.label()}_s{self.scenario_index}"


# ----------------------------------------------------------------------
# Platforms: one draw, on the substrate's registered model factory
# ----------------------------------------------------------------------
def build_platform(
    params: ScenarioParameters,
    availability: Optional[AvailabilitySpec],
    *,
    seed: SeedLike,
) -> Platform:
    """The platform of *params* on an availability substrate, drawn from *seed*.

    The substrate (``None`` is the paper's default ``markov``) is looked up
    in :data:`repro.availability.registry.AVAILABILITY_MODELS` and its model
    factory handed to :func:`~repro.platform.builders.availability_platform`,
    which draws models first and speeds second from the seeded generator —
    for the default ``markov`` spec this is exactly the
    :func:`~repro.platform.builders.paper_platform` draw.
    """
    return availability_platform(
        params.platform_spec(),
        num_tasks=params.m,
        seed=seed,
        model_factory=model_factory_for(availability or AvailabilitySpec()),
    )
