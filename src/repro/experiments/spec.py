"""Declarative campaign specifications.

A :class:`CampaignSpec` describes a whole experiment campaign as data: the
grid ranges (``m``, ``ncom``, ``wmin``, ``num_processors``), the availability
substrate (Markov / semi-Markov / diurnal / trace, with per-processor
parameter distributions), the heuristic subset, and the repetition counts.
Specs are loaded from TOML or JSON files (``repro campaign --spec``), or
looked up from the named built-ins (``--builtin paper`` is the paper's
Section VII-A grid).

The spec fully determines the campaign's *cells* — the flat, deterministic
enumeration of every ``(scenario, trial, heuristic)`` triple.  The cell list
is the contract shared by the runner, the persistent result store and the
sharding logic: cell ``i`` means the same work on every machine, which is
what makes campaigns resumable and shardable.

The user-facing file format groups keys into three tables::

    [campaign]
    name = "my-sweep"
    m = [5, 10]
    heuristics = ["IE", "Y-IE", "RANDOM"]
    scenarios_per_cell = 2
    trials = 3
    iterations = 10
    makespan_cap = 150000

    [grid]
    ncom = [5, 20]
    wmin = [1, 4, 7, 10]
    num_processors = [20]

    [availability]
    kind = "semi-markov"
    mean_up = [25.0, 60.0]     # range: drawn uniformly per processor

Flat payloads (as produced by :meth:`CampaignSpec.as_dict`, e.g. in store
manifests) are accepted by :meth:`CampaignSpec.from_dict` as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Mapping, Optional, Tuple, Union

from repro.exceptions import ExperimentError
from repro.experiments.scenarios import (
    AvailabilitySpec,
    ExperimentScenario,
    ScenarioParameters,
)
from repro.components import ComponentError
from repro.scheduling.registry import (
    ALL_HEURISTICS,
    TABLE2_HEURISTICS,
    canonical_heuristic,
)
from repro.utils.serialization import content_hash

__all__ = [
    "CampaignCell",
    "CampaignSpec",
    "BUILTIN_SPEC_NAMES",
    "builtin_spec",
    "load_spec",
    "parse_spec_text",
]

SPEC_FORMAT_VERSION = 1

#: The cell key type: (m, ncom, wmin, num_processors, scenario, trial, heuristic).
CellKey = Tuple[int, int, int, int, int, int, str]


@dataclass(frozen=True)
class CampaignCell:
    """One unit of campaign work: a (scenario, trial, heuristic) triple.

    ``index`` is the cell's position in the spec's canonical enumeration —
    the identity used by the result store (resume) and by sharding.
    """

    index: int
    scenario: ExperimentScenario
    trial: int
    heuristic: str

    def key(self) -> CellKey:
        params = self.scenario.params
        return (
            params.m,
            params.ncom,
            params.wmin,
            params.num_processors,
            self.scenario.scenario_index,
            self.trial,
            self.heuristic,
        )

    def label(self) -> str:
        return f"{self.scenario.label()} trial {self.trial} {self.heuristic}"


def _int_tuple(values, name: str) -> Tuple[int, ...]:
    if isinstance(values, (int, float)):
        values = (values,)
    result = tuple(int(v) for v in values)
    if not result:
        raise ExperimentError(f"{name} must be non-empty")
    if any(v < 1 for v in result):
        raise ExperimentError(f"{name} entries must be positive, got {result}")
    return result


@dataclass(frozen=True)
class CampaignSpec:
    """A complete, declarative description of one experiment campaign."""

    name: str = "campaign"
    m_values: Tuple[int, ...] = (5,)
    ncom_values: Tuple[int, ...] = (5, 10, 20)
    wmin_values: Tuple[int, ...] = tuple(range(1, 11))
    num_processors_values: Tuple[int, ...] = (20,)
    heuristics: Tuple[str, ...] = ALL_HEURISTICS
    scenarios_per_cell: int = 10
    trials_per_scenario: int = 10
    iterations: int = 10
    makespan_cap: int = 1_000_000
    availability: AvailabilitySpec = AvailabilitySpec()
    estimator: str = "paper"
    #: Directory the spec file was loaded from, used only to resolve relative
    #: trace paths at run time.  Runtime context, not campaign identity: it
    #: is excluded from equality, ``as_dict`` and ``spec_hash``, so the same
    #: spec file checked out at different locations on different shard
    #: machines still hashes (and therefore merges) identically.
    base_dir: Optional[str] = field(default=None, compare=False)
    #: Observability toggles: attach a per-run metrics collector sampling
    #: per-slot series every ``metrics_stride`` slots.  Runtime options, not
    #: campaign identity (excluded from equality, ``as_dict`` and
    #: ``spec_hash`` like ``base_dir``): the series are volatile store
    #: fields, so stores written with and without them resume and merge
    #: interchangeably.
    collect_metrics: bool = field(default=False, compare=False)
    metrics_stride: int = field(default=64, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "m_values", _int_tuple(self.m_values, "m_values"))
        object.__setattr__(self, "ncom_values", _int_tuple(self.ncom_values, "ncom_values"))
        object.__setattr__(self, "wmin_values", _int_tuple(self.wmin_values, "wmin_values"))
        object.__setattr__(
            self,
            "num_processors_values",
            _int_tuple(self.num_processors_values, "num_processors_values"),
        )
        if not self.name:
            raise ExperimentError("spec name must be non-empty")
        # Heuristic expressions are validated against the component registry
        # and canonicalized (case, aliases, argument order), so equivalent
        # spellings of a parameterized heuristic produce identical cell
        # enumerations and spec content hashes.
        canonical: List[str] = []
        unknown: List[str] = []
        for heuristic in self.heuristics:
            try:
                canonical.append(canonical_heuristic(str(heuristic)))
            except ComponentError:
                unknown.append(str(heuristic))
        if unknown:
            raise ExperimentError(f"unknown heuristics in spec: {unknown}")
        if not canonical:
            raise ExperimentError("spec must name at least one heuristic")
        object.__setattr__(self, "heuristics", tuple(canonical))
        counts = ("scenarios_per_cell", "trials_per_scenario", "iterations", "makespan_cap")
        for field_name in counts:
            if int(getattr(self, field_name)) < 1:
                raise ExperimentError(f"{field_name} must be >= 1")
        if self.estimator not in ("paper", "renewal"):
            raise ExperimentError(
                f"estimator must be 'paper' or 'renewal', got {self.estimator!r}"
            )
        if int(self.metrics_stride) < 1:
            raise ExperimentError(
                f"metrics_stride must be >= 1, got {self.metrics_stride}"
            )
        if not isinstance(self.availability, AvailabilitySpec):
            object.__setattr__(
                self, "availability", AvailabilitySpec.from_mapping(self.availability)
            )

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def _runtime_availability(self) -> Optional[AvailabilitySpec]:
        """The availability spec as the runner needs it (trace paths resolved).

        Any registered substrate with a ``path`` parameter (``trace``,
        ``trace-catalog``, ``trace-bootstrap``, ``fitted``, custom ones) gets
        relative paths resolved against the spec file's directory.
        """
        if self.availability.is_default_markov():
            return None
        availability = self.availability
        raw_path = availability.get("path")
        if raw_path is not None and self.base_dir is not None:
            path = Path(str(raw_path))
            if not path.is_absolute():
                resolved = str((Path(self.base_dir) / path).resolve())
                availability = AvailabilitySpec(
                    kind=availability.kind,
                    parameters=tuple(
                        (key, resolved if key == "path" else value)
                        for key, value in availability.parameters
                    ),
                )
        return availability

    def scenarios(self) -> List[ExperimentScenario]:
        """All scenarios, in canonical (m, num_processors, ncom, wmin, index) order."""
        availability = self._runtime_availability()
        scenarios: List[ExperimentScenario] = []
        for m in self.m_values:
            for num_processors in self.num_processors_values:
                for ncom in self.ncom_values:
                    for wmin in self.wmin_values:
                        params = ScenarioParameters(
                            m=m, ncom=ncom, wmin=wmin, num_processors=num_processors
                        )
                        scenarios.extend(
                            ExperimentScenario(
                                params=params,
                                scenario_index=index,
                                campaign=self.name,
                                availability=availability,
                            )
                            for index in range(self.scenarios_per_cell)
                        )
        return scenarios

    def cells(self) -> List[CampaignCell]:
        """The canonical flat cell enumeration (scenario-major, then trial, heuristic)."""
        cells: List[CampaignCell] = []
        index = 0
        for scenario in self.scenarios():
            for trial in range(self.trials_per_scenario):
                for heuristic in self.heuristics:
                    cells.append(CampaignCell(index, scenario, trial, heuristic))
                    index += 1
        return cells

    def num_cells(self) -> int:
        return (
            len(self.m_values)
            * len(self.num_processors_values)
            * len(self.ncom_values)
            * len(self.wmin_values)
            * self.scenarios_per_cell
            * self.trials_per_scenario
            * len(self.heuristics)
        )

    def shard_cells(self, shard_index: int, shard_count: int) -> List[CampaignCell]:
        """The cells owned by shard ``shard_index`` of ``shard_count`` (1-based).

        Cells are dealt round-robin, so shards are deterministic, disjoint,
        jointly complete and balanced to within one cell regardless of how
        scenario difficulty is ordered in the grid.
        """
        if shard_count < 1:
            raise ExperimentError(f"shard count must be >= 1, got {shard_count}")
        if not (1 <= shard_index <= shard_count):
            raise ExperimentError(
                f"shard index must be in [1, {shard_count}], got {shard_index}"
            )
        return self.cells()[shard_index - 1 :: shard_count]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "format_version": SPEC_FORMAT_VERSION,
            "name": self.name,
            "m_values": list(self.m_values),
            "ncom_values": list(self.ncom_values),
            "wmin_values": list(self.wmin_values),
            "num_processors_values": list(self.num_processors_values),
            "heuristics": list(self.heuristics),
            "scenarios_per_cell": self.scenarios_per_cell,
            "trials_per_scenario": self.trials_per_scenario,
            "iterations": self.iterations,
            "makespan_cap": self.makespan_cap,
            "availability": self.availability.as_dict(),
            "estimator": self.estimator,
        }

    def spec_hash(self) -> str:
        """Content hash identifying "the same campaign" across stores/shards."""
        payload = self.as_dict()
        del payload["format_version"]
        return content_hash(payload)

    @classmethod
    def from_dict(cls, payload: Mapping, *, base_dir: Optional[Path] = None) -> "CampaignSpec":
        """Build a spec from a flat payload or a sectioned spec-file mapping."""
        if "campaign" in payload or "grid" in payload:
            return cls._from_file_dict(payload, base_dir=base_dir)
        data = dict(payload)
        data.pop("format_version", None)
        data.pop("base_dir", None)
        availability = data.pop("availability", None)
        spec = cls(**data)
        if availability is not None:
            spec = replace(spec, availability=AvailabilitySpec.from_mapping(availability))
        if base_dir is not None:
            spec = replace(spec, base_dir=str(base_dir))
        return spec

    @classmethod
    def _from_file_dict(
        cls, payload: Mapping, *, base_dir: Optional[Path] = None
    ) -> "CampaignSpec":
        campaign = dict(payload.get("campaign", {}))
        grid = dict(payload.get("grid", {}))
        availability = dict(payload.get("availability", {"kind": "markov"}))
        known_campaign = {
            "name": "name",
            "m": "m_values",
            "heuristics": "heuristics",
            "scenarios_per_cell": "scenarios_per_cell",
            "trials": "trials_per_scenario",
            "iterations": "iterations",
            "makespan_cap": "makespan_cap",
            "estimator": "estimator",
            "collect_metrics": "collect_metrics",
            "metrics_stride": "metrics_stride",
        }
        known_grid = {
            "ncom": "ncom_values",
            "wmin": "wmin_values",
            "num_processors": "num_processors_values",
        }
        kwargs = {}
        for source, mapping in ((campaign, known_campaign), (grid, known_grid)):
            for key, value in source.items():
                if key not in mapping:
                    section = "campaign" if mapping is known_campaign else "grid"
                    raise ExperimentError(
                        f"unknown key {key!r} in [{section}] "
                        f"(expected one of {sorted(mapping)})"
                    )
                kwargs[mapping[key]] = value
        kwargs["availability"] = AvailabilitySpec.from_mapping(availability)
        if base_dir is not None:
            kwargs["base_dir"] = str(base_dir)
        return cls(**kwargs)


# ----------------------------------------------------------------------
# Spec files and built-ins
# ----------------------------------------------------------------------
def load_spec(path: Union[str, Path]) -> CampaignSpec:
    """Load a campaign spec from a TOML or JSON file.

    The format is chosen by extension (``.toml`` needs Python >= 3.11's
    ``tomllib``; everything else is parsed as JSON).  Relative trace paths
    are resolved against the spec file's directory.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise ExperimentError(f"cannot read campaign spec {path}: {error}") from error
    payload = parse_spec_text(text, toml=path.suffix.lower() == ".toml", source=str(path))
    return CampaignSpec.from_dict(payload, base_dir=path.parent)


def parse_spec_text(text: str, *, toml: bool, source: str) -> dict:
    """Parse a campaign spec's TOML (``toml=True``) or JSON text to a mapping.

    TOML needs Python >= 3.11's ``tomllib``.  Every failure, a missing
    ``tomllib`` included, raises :class:`ExperimentError`; *source* names
    the text in the message (a file path, a request field).
    """
    if toml:
        try:
            import tomllib
        except ImportError as error:  # Python <= 3.10
            raise ExperimentError(
                "TOML specs need Python >= 3.11 (tomllib); use a JSON spec instead"
            ) from error
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ExperimentError(f"{source} is not valid TOML: {error}") from error
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise ExperimentError(f"{source} is not valid JSON: {error}") from error


def _builtins() -> dict:
    paper_grid = dict(
        ncom_values=(5, 10, 20),
        wmin_values=tuple(range(1, 11)),
        num_processors_values=(20,),
        scenarios_per_cell=10,
        trials_per_scenario=10,
        iterations=10,
        makespan_cap=1_000_000,
    )
    return {
        # The full Section VII-A campaign: both tables' grids.
        "paper": CampaignSpec(
            name="paper", m_values=(5, 10), heuristics=ALL_HEURISTICS, **paper_grid
        ),
        "paper-table1": CampaignSpec(
            name="paper-table1", m_values=(5,), heuristics=ALL_HEURISTICS, **paper_grid
        ),
        "paper-table2": CampaignSpec(
            name="paper-table2", m_values=(10,), heuristics=TABLE2_HEURISTICS, **paper_grid
        ),
        # Laptop-scale grid: the paper sweep with fewer repetitions.
        "reduced": CampaignSpec(
            name="reduced",
            m_values=(5,),
            ncom_values=(5, 20),
            wmin_values=(1, 4, 7, 10),
            num_processors_values=(20,),
            heuristics=ALL_HEURISTICS,
            scenarios_per_cell=2,
            trials_per_scenario=2,
            iterations=10,
            makespan_cap=150_000,
        ),
        # Tiny end-to-end smoke grid (CI nightly, tests).
        "smoke": CampaignSpec(
            name="smoke",
            m_values=(4,),
            ncom_values=(5,),
            wmin_values=(1,),
            num_processors_values=(8,),
            heuristics=("IE", "RANDOM"),
            scenarios_per_cell=1,
            trials_per_scenario=2,
            iterations=3,
            makespan_cap=30_000,
        ),
    }


BUILTIN_SPEC_NAMES: Tuple[str, ...] = tuple(sorted(_builtins()))


def builtin_spec(name: str) -> CampaignSpec:
    """Look up a named built-in spec (``BUILTIN_SPEC_NAMES`` lists them)."""
    specs = _builtins()
    if name not in specs:
        raise ExperimentError(
            f"unknown built-in spec {name!r}; available: {list(BUILTIN_SPEC_NAMES)}"
        )
    return specs[name]
