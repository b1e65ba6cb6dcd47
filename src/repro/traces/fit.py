"""Fitting calibrated availability models to recorded traces.

The paper's conclusion proposes testing the heuristics on *recorded*
desktop-grid availability and on the "flawed" models a scheduler would fit
to it.  This module is that calibration step: given an ingested
:class:`~repro.availability.trace.AvailabilityTrace` (or raw state
sequences), it estimates the parameters of each registered synthetic
substrate —

* ``markov`` — the 3-state chain of Section V, via
  :func:`repro.availability.statistics.estimate_markov_matrix`;
* ``semi-markov`` — embedded jump chain + per-state sojourn distributions
  (Weibull / log-normal / geometric) fitted over the *complete* interval
  lengths (edge-censored first/last runs excluded, see
  :func:`repro.availability.statistics.state_intervals`);
* ``diurnal`` — hour-of-day folding: transition counts are folded modulo a
  day length and a per-phase transition matrix is estimated for each bin.

Every fit returns a :class:`FittedModel` carrying goodness-of-fit summaries:
the log-likelihood of the observed transitions/sojourns under the fitted
model, and per-state Kolmogorov–Smirnov distances between the empirical
interval-length distributions and the fitted sojourn laws.  ``repro traces
fit`` prints these side by side so the three calibrations of one dataset can
be compared directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.availability.diurnal import DiurnalAvailabilityModel, DiurnalPhase
from repro.availability.markov import MarkovAvailabilityModel
from repro.availability.model import AvailabilityModel
from repro.availability.semi_markov import (
    GeometricHolding,
    HoldingTimeDistribution,
    LogNormalHolding,
    SemiMarkovAvailabilityModel,
    WeibullHolding,
)
from repro.availability.statistics import (
    _as_state_array,
    state_intervals,
    state_runs,
    transition_counts,
)
from repro.availability.trace import AvailabilityTrace
from repro.exceptions import ReproError
from repro.types import DOWN, RECLAIMED, UP, ProcessorState

__all__ = [
    "FIT_KINDS",
    "SOJOURN_FAMILIES",
    "TraceFitError",
    "SojournFit",
    "FittedModel",
    "fit_markov",
    "fit_semi_markov",
    "fit_diurnal",
    "fit_correlated",
    "fit_degradation",
    "fit_model",
    "ks_distance",
]

#: The model kinds :func:`fit_model` dispatches over (registered substrate names).
FIT_KINDS = ("markov", "semi-markov", "diurnal", "correlated", "degradation")

#: Sojourn-distribution families the semi-Markov fitter can use per state.
SOJOURN_FAMILIES = ("weibull", "lognormal", "geometric")

_STATES = (UP, RECLAIMED, DOWN)

#: Probability floor used in log-likelihoods so unobserved-but-possible
#: transitions never produce ``-inf`` (they are heavily penalised instead).
_LOG_FLOOR = 1e-300


class TraceFitError(ReproError, ValueError):
    """A trace cannot support the requested fit (too short, no data...)."""


def _sequences_of(data: Union[AvailabilityTrace, np.ndarray, Sequence]) -> List[np.ndarray]:
    """Normalise fitter input to a list of validated per-processor state vectors."""
    if isinstance(data, AvailabilityTrace):
        rows: List = [data.row(index) for index in range(data.num_processors)]
    elif isinstance(data, np.ndarray):
        if data.ndim == 1:
            rows = [data]
        elif data.ndim == 2:
            rows = list(data)
        else:
            raise TraceFitError(f"state arrays must be 1-D or 2-D, got ndim={data.ndim}")
    else:
        rows = list(data)
        if rows and (np.isscalar(rows[0]) or isinstance(rows[0], ProcessorState)):
            rows = [rows]
    return [_as_state_array(row) for row in rows]


def ks_distance(samples: Sequence[int], cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Kolmogorov–Smirnov distance between integer *samples* and a sojourn CDF.

    Sojourn laws are slot-valued (the continuous families are used through
    ceiling), so the comparison is against the *discretised* model: the
    distance is evaluated at each observed atom ``k`` (``ECDF(k)`` vs
    ``CDF(k)``) and just below it (``ECDF(k - 1)`` side vs ``CDF(k - 1)``),
    which is the exact discrete statistic for geometric fits and the natural
    discretisation for Weibull/log-normal ones.
    """
    values = np.sort(np.asarray(samples, dtype=float))
    if values.size == 0:
        return float("nan")
    unique, counts = np.unique(values, return_counts=True)
    ecdf = np.cumsum(counts) / values.size
    model = np.clip(np.asarray(cdf(unique), dtype=float), 0.0, 1.0)
    model_before = np.clip(np.asarray(cdf(unique - 1.0), dtype=float), 0.0, 1.0)
    below = np.abs(ecdf - model)
    above = np.abs(np.concatenate([[0.0], ecdf[:-1]]) - model_before)
    return float(np.max(np.maximum(below, above)))


@dataclass(frozen=True)
class SojournFit:
    """One state's fitted sojourn distribution plus its fit diagnostics."""

    state: ProcessorState
    family: str
    distribution: HoldingTimeDistribution
    num_intervals: int
    ks: float
    log_likelihood: float

    def describe(self) -> str:
        return (
            f"{self.state.name}: {self.distribution.describe()} "
            f"(n={self.num_intervals}, KS={self.ks:.3f})"
        )


@dataclass(frozen=True)
class FittedModel:
    """A calibrated availability model with goodness-of-fit summaries.

    ``instantiate()`` builds a *fresh* model instance — models carry
    per-trajectory sampling state (semi-Markov holding counters, diurnal
    clocks), so every simulated processor must get its own instance.  The
    shared read-only parameters (matrices, holding distributions) are reused
    across instances.
    """

    kind: str
    parameters: Dict[str, object]
    log_likelihood: float
    num_transitions: int
    ks: Dict[str, float]
    sojourns: Tuple[SojournFit, ...] = ()
    _builder: Callable[[], AvailabilityModel] = field(repr=False, compare=False, default=None)
    #: Optional platform-hazard constructor (``num_workers -> GroupHazardProcess``)
    #: carried by fits of overlay substrates such as ``correlated``.
    _hazard_builder: Optional[Callable] = field(repr=False, compare=False, default=None)

    def instantiate(self) -> AvailabilityModel:
        """A fresh, independently-sampleable model with the fitted parameters."""
        return self._builder()

    @property
    def hazard_builder(self) -> Optional[Callable]:
        """``num_workers -> GroupHazardProcess`` for overlay fits, else ``None``."""
        return self._hazard_builder

    @property
    def model(self) -> AvailabilityModel:
        """One shared instance, for read-only inspection (matrix, describe...)."""
        return self.instantiate()

    def make_models(self, count: int) -> List[AvailabilityModel]:
        """*count* independent instances (one per simulated processor)."""
        return [self.instantiate() for _ in range(count)]

    def summary(self) -> Dict[str, object]:
        """JSON-friendly summary (CLI tables, reports)."""
        return {
            "kind": self.kind,
            "log_likelihood": self.log_likelihood,
            "num_transitions": self.num_transitions,
            "ks": dict(self.ks),
            "parameters": dict(self.parameters),
        }


# ----------------------------------------------------------------------
# Markov
# ----------------------------------------------------------------------
def _transition_log_likelihood(counts: np.ndarray, matrix: np.ndarray) -> float:
    observed = counts > 0
    return float(np.sum(counts[observed] * np.log(np.maximum(matrix[observed], _LOG_FLOOR))))


def _geometric_cdf(p: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda k: 1.0 - np.power(1.0 - p, np.maximum(np.asarray(k, dtype=float), 0.0))


def fit_markov(
    data: Union[AvailabilityTrace, np.ndarray, Sequence],
    *,
    prior: float = 0.0,
    censor_edges: bool = True,
) -> FittedModel:
    """Maximum-likelihood 3-state Markov fit, pooled over all processors.

    The KS diagnostics compare each state's complete (edge-censoring per
    ``censor_edges``) interval lengths against the geometric sojourn law the
    fitted chain implies, which is exactly where a Markov fit of heavy-tailed
    desktop-grid data shows its "flaw".
    """
    sequences = _sequences_of(data)
    counts = np.zeros((3, 3), dtype=np.int64)
    for sequence in sequences:
        counts += transition_counts(sequence)
    if counts.sum() == 0:
        raise TraceFitError("cannot fit a Markov chain: no transitions in the trace")
    # Pool the counts across processors (estimate_markov_matrix is per
    # sequence); rows with no observations stay "stay in place", matching it.
    smoothed = counts.astype(float) + float(prior)
    matrix = np.eye(3)
    for index in range(3):
        total = smoothed[index].sum()
        if total > 0:
            matrix[index] = smoothed[index] / total
    intervals = _pooled_intervals(sequences, censor_edges=censor_edges)
    ks: Dict[str, float] = {}
    for state in _STATES:
        stay = float(matrix[int(state), int(state)])
        leave = max(1.0 - stay, 1e-12)
        ks[state.name] = ks_distance(intervals[state], _geometric_cdf(leave))
    model = MarkovAvailabilityModel(matrix)
    return FittedModel(
        kind="markov",
        parameters={"matrix": matrix.tolist(), "prior": float(prior)},
        log_likelihood=_transition_log_likelihood(counts, matrix),
        num_transitions=int(counts.sum()),
        ks=ks,
        _builder=lambda: MarkovAvailabilityModel(model.matrix),
    )


def _pooled_intervals(
    sequences: Sequence[np.ndarray], *, censor_edges: bool
) -> Dict[ProcessorState, List[int]]:
    pooled: Dict[ProcessorState, List[int]] = {UP: [], RECLAIMED: [], DOWN: []}
    for sequence in sequences:
        for state, lengths in state_intervals(sequence, censor_edges=censor_edges).items():
            pooled[state].extend(lengths)
    return pooled


# ----------------------------------------------------------------------
# Semi-Markov
# ----------------------------------------------------------------------
def _fit_weibull(lengths: np.ndarray) -> Tuple[HoldingTimeDistribution, Dict[str, float]]:
    from scipy import stats

    if np.all(lengths == lengths[0]):
        # Degenerate sample: Weibull MLE cannot converge; use a sharp
        # (high-shape) fit centred on the constant.
        shape, scale = 20.0, float(lengths[0])
    else:
        shape, _loc, scale = stats.weibull_min.fit(lengths, floc=0)
    return WeibullHolding(float(shape), float(scale)), {
        "shape": float(shape), "scale": float(scale)
    }


def _fit_lognormal(lengths: np.ndarray) -> Tuple[HoldingTimeDistribution, Dict[str, float]]:
    logs = np.log(lengths)
    mu = float(np.mean(logs))
    sigma = float(max(np.std(logs), 1e-6))
    return LogNormalHolding(mu, sigma), {"mu": mu, "sigma": sigma}


def _fit_geometric(lengths: np.ndarray) -> Tuple[HoldingTimeDistribution, Dict[str, float]]:
    p = float(min(1.0, 1.0 / max(np.mean(lengths), 1.0)))
    return GeometricHolding(p), {"p": p}


_SOJOURN_FITTERS = {
    "weibull": _fit_weibull,
    "lognormal": _fit_lognormal,
    "geometric": _fit_geometric,
}


def _sojourn_cdf(family: str, distribution: HoldingTimeDistribution):
    """Continuous CDF of a fitted sojourn family (for KS diagnostics)."""
    if family == "weibull":
        shape, scale = distribution.shape, distribution.scale

        return lambda k: 1.0 - np.exp(-np.power(np.maximum(k, 0.0) / scale, shape))
    if family == "lognormal":
        from scipy import stats

        mu, sigma = distribution.mu, distribution.sigma
        return lambda k: stats.norm.cdf((np.log(np.maximum(k, 1e-12)) - mu) / sigma)
    return _geometric_cdf(distribution.p)


def _sojourn_log_likelihood(
    family: str, distribution: HoldingTimeDistribution, lengths: np.ndarray
) -> float:
    """Discrete log-likelihood: P(T = k) = CDF(k) - CDF(k - 1) (slot-ceiled)."""
    cdf = _sojourn_cdf(family, distribution)
    k = lengths.astype(float)
    mass = np.asarray(cdf(k)) - np.asarray(cdf(k - 1.0))
    return float(np.sum(np.log(np.maximum(mass, _LOG_FLOOR))))


def fit_semi_markov(
    data: Union[AvailabilityTrace, np.ndarray, Sequence],
    *,
    families: Optional[Dict[ProcessorState, str]] = None,
    censor_edges: bool = True,
) -> FittedModel:
    """Fit a semi-Markov process: embedded jump chain + sojourn distributions.

    ``families`` maps each state to its sojourn family (default: the
    desktop-grid shape reported by the characterisation studies — Weibull
    UP sojourns, log-normal RECLAIMED and DOWN interruptions).  Sojourns are
    estimated over complete intervals only (``censor_edges=True``); the jump
    chain over all observed run-to-run transitions.
    """
    sequences = _sequences_of(data)
    chosen = {UP: "weibull", RECLAIMED: "lognormal", DOWN: "lognormal"}
    if families:
        for state, family in families.items():
            if family not in _SOJOURN_FITTERS:
                raise TraceFitError(
                    f"unknown sojourn family {family!r}; expected one of {SOJOURN_FAMILIES}"
                )
            chosen[ProcessorState.coerce(state)] = family

    # Embedded jump chain: transitions between consecutive maximal runs.
    jump_counts = np.zeros((3, 3), dtype=np.int64)
    num_jumps = 0
    for sequence in sequences:
        runs = state_runs(sequence)
        for (state, _), (target, _) in zip(runs, runs[1:]):
            jump_counts[int(state), int(target)] += 1
            num_jumps += 1
    if num_jumps == 0:
        raise TraceFitError(
            "cannot fit a semi-Markov model: the trace never changes state"
        )
    jump = np.zeros((3, 3))
    for index in range(3):
        total = jump_counts[index].sum()
        if total > 0:
            jump[index] = jump_counts[index] / total
        else:
            # Unobserved source state: split evenly over the other states
            # (the diagonal must stay zero for an embedded jump chain).
            jump[index] = [0.5 if other != index else 0.0 for other in range(3)]

    intervals = _pooled_intervals(sequences, censor_edges=censor_edges)
    holding: Dict[ProcessorState, HoldingTimeDistribution] = {}
    sojourns: List[SojournFit] = []
    ks: Dict[str, float] = {}
    log_likelihood = _transition_log_likelihood(jump_counts, np.maximum(jump, _LOG_FLOOR))
    parameters: Dict[str, object] = {"jump_matrix": jump.tolist()}
    for state in _STATES:
        lengths = np.asarray(intervals[state], dtype=float)
        family = chosen[state]
        if lengths.size == 0:
            # No complete sojourn observed: a one-slot geometric placeholder
            # (the jump chain rarely or never enters this state anyway).
            distribution, params = GeometricHolding(1.0), {"p": 1.0}
            family = "geometric"
            state_ks = float("nan")
            state_ll = 0.0
        else:
            distribution, params = _SOJOURN_FITTERS[family](lengths)
            state_ks = ks_distance(lengths, _sojourn_cdf(family, distribution))
            state_ll = _sojourn_log_likelihood(family, distribution, lengths)
        holding[state] = distribution
        ks[state.name] = state_ks
        log_likelihood += state_ll
        sojourns.append(
            SojournFit(
                state=state,
                family=family,
                distribution=distribution,
                num_intervals=int(lengths.size),
                ks=state_ks,
                log_likelihood=state_ll,
            )
        )
        parameters[state.name.lower()] = {"family": family, **params}

    return FittedModel(
        kind="semi-markov",
        parameters=parameters,
        log_likelihood=log_likelihood,
        num_transitions=num_jumps,
        ks=ks,
        sojourns=tuple(sojourns),
        _builder=lambda: SemiMarkovAvailabilityModel(jump, holding),
    )


# ----------------------------------------------------------------------
# Diurnal
# ----------------------------------------------------------------------
def fit_diurnal(
    data: Union[AvailabilityTrace, np.ndarray, Sequence],
    *,
    day_length: int = 96,
    num_phases: int = 2,
    prior: float = 0.0,
) -> FittedModel:
    """Fit a cyclic non-homogeneous model by hour-of-day folding.

    The day is cut into ``num_phases`` equal bins; every observed transition
    is folded modulo ``day_length`` and attributed to the bin of its *source*
    slot (matching the convention of
    :class:`~repro.availability.diurnal.DiurnalAvailabilityModel`, whose
    transition into slot *t* is governed by the phase at slot ``t - 1``).
    One transition matrix is estimated per bin.  Recorded logs share a wall
    clock, so all processors fold with phase offset 0.
    """
    if day_length < num_phases or num_phases < 1:
        raise TraceFitError(
            f"need day_length >= num_phases >= 1, got {day_length} and {num_phases}"
        )
    sequences = _sequences_of(data)
    phase_length = day_length // num_phases
    boundaries = [phase * phase_length for phase in range(num_phases)] + [day_length]
    counts = np.zeros((num_phases, 3, 3), dtype=np.int64)
    for sequence in sequences:
        values = sequence
        if values.size < 2:
            continue
        sources = values[:-1]
        targets = values[1:]
        slots = np.arange(values.size - 1) % day_length
        bins = np.minimum(slots // phase_length, num_phases - 1)
        np.add.at(counts, (bins, sources, targets), 1)
    total = int(counts.sum())
    if total == 0:
        raise TraceFitError("cannot fit a diurnal model: no transitions in the trace")

    phases: List[DiurnalPhase] = []
    log_likelihood = 0.0
    matrices = []
    for phase_index in range(num_phases):
        smoothed = counts[phase_index].astype(float) + float(prior)
        matrix = np.eye(3)
        for row in range(3):
            row_total = smoothed[row].sum()
            if row_total > 0:
                matrix[row] = smoothed[row] / row_total
        log_likelihood += _transition_log_likelihood(counts[phase_index], matrix)
        duration = boundaries[phase_index + 1] - boundaries[phase_index]
        phases.append(DiurnalPhase(f"phase{phase_index}", duration, matrix))
        matrices.append(matrix.tolist())

    # KS diagnostics: fold the empirical interval lengths against the
    # homogeneous (duration-weighted) approximation's geometric law — the
    # per-phase laws have no closed-form marginal sojourn distribution.
    reference = DiurnalAvailabilityModel(phases).markov_approximation()
    intervals = _pooled_intervals(sequences, censor_edges=True)
    ks: Dict[str, float] = {}
    for state in _STATES:
        stay = float(reference[int(state), int(state)])
        ks[state.name] = ks_distance(
            intervals[state], _geometric_cdf(max(1.0 - stay, 1e-12))
        )

    return FittedModel(
        kind="diurnal",
        parameters={
            "day_length": int(day_length),
            "num_phases": int(num_phases),
            "phase_matrices": matrices,
        },
        log_likelihood=log_likelihood,
        num_transitions=total,
        ks=ks,
        _builder=lambda: DiurnalAvailabilityModel(list(phases)),
    )


# ----------------------------------------------------------------------
# Correlated outages (domain events from simultaneous DOWN onsets)
# ----------------------------------------------------------------------
def fit_correlated(
    data: Union[AvailabilityTrace, np.ndarray, Sequence],
    *,
    min_workers: int = 2,
    min_coincidences: int = 2,
    assoc_threshold: float = 0.5,
) -> FittedModel:
    """Fit a :class:`~repro.hazards.DomainOutageProcess` over a Markov base.

    Detection works from *simultaneous DOWN onsets*: slots where at least
    ``min_workers`` workers transition into DOWN together are treated as
    candidate domain events.  Workers are clustered into domains by
    co-onset association — two workers are linked when they co-onset in at
    least ``min_coincidences`` events *and* in at least ``assoc_threshold``
    of the event participations of the rarer of the two (per-worker base
    failures coincide occasionally by chance; domain members co-onset
    almost always, so the normalised association separates them cleanly).

    Per event, the outage duration is the span all onsetting members stay
    simultaneously DOWN, corrected for the expected geometric tail the
    members' base chains add after the overlay ends (estimated from the
    trace's pooled DOWN self-transition probability).  The base chain is
    fitted over the transitions *outside* detected events.
    """
    sequences = _sequences_of(data)
    if len(sequences) < 2:
        raise TraceFitError(
            "fitting correlated outages needs a multi-worker trace "
            f"(got {len(sequences)} row)"
        )
    horizon = sequences[0].size
    if any(sequence.size != horizon for sequence in sequences):
        raise TraceFitError("correlated fit needs equal-length trace rows")
    if horizon < 2:
        raise TraceFitError("trace too short to detect outage events")
    matrix = np.vstack(sequences)
    num_workers = matrix.shape[0]

    down = matrix == int(DOWN)
    onsets = np.zeros_like(down)
    onsets[:, 0] = down[:, 0]
    onsets[:, 1:] = down[:, 1:] & ~down[:, :-1]
    event_slots = np.flatnonzero(onsets.sum(axis=0) >= max(2, int(min_workers)))
    if event_slots.size == 0:
        raise TraceFitError(
            "no simultaneous DOWN onsets found: the trace shows no "
            "correlated-outage structure"
        )

    # Cluster workers by normalised co-onset association (union-find).
    participation = onsets[:, event_slots]
    co_onsets = participation.astype(np.int64) @ participation.astype(np.int64).T
    totals = np.diag(co_onsets)
    parent = list(range(num_workers))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for i in range(num_workers):
        for j in range(i + 1, num_workers):
            smaller = min(totals[i], totals[j])
            if smaller == 0:
                continue
            if co_onsets[i, j] >= min_coincidences and (
                co_onsets[i, j] >= assoc_threshold * smaller
            ):
                parent[find(i)] = find(j)
    clusters: Dict[int, List[int]] = {}
    for worker in range(num_workers):
        clusters.setdefault(find(worker), []).append(worker)
    domains = sorted(
        (sorted(members) for members in clusters.values() if len(members) >= 2),
        key=lambda members: members[0],
    )
    if not domains:
        raise TraceFitError(
            "simultaneous DOWN onsets never cluster: no stable outage "
            "domains detected"
        )

    # Pooled DOWN self-transition probability: the base chains extend each
    # member's DOWN run past the overlay's end by a geometric tail.
    counts = np.zeros((3, 3), dtype=np.int64)
    for sequence in sequences:
        counts += transition_counts(sequence)
    down_row = counts[int(DOWN)].sum()
    stay_dd = float(counts[int(DOWN), int(DOWN)] / down_row) if down_row else 0.0
    stay_dd = min(stay_dd, 1.0 - 1e-9)

    overlay_mask = np.zeros_like(down)
    durations: List[float] = []
    gaps: List[int] = []
    num_events = 0
    for members in domains:
        rows = np.array(members)
        member_onsets = onsets[rows][:, :]
        # A domain event: at least half of the members (>= 2) onset together.
        quorum = max(2, (len(members) + 1) // 2)
        domain_events = np.flatnonzero(member_onsets.sum(axis=0) >= quorum)
        previous_start = None
        for slot in domain_events:
            starters = rows[member_onsets[:, slot]]
            # Common-DOWN span: until the first onsetting member recovers.
            span = horizon - slot
            for worker in starters:
                run = slot
                while run < horizon and down[worker, run]:
                    run += 1
                span = min(span, run - slot)
            overlay_mask[np.ix_(rows, np.arange(slot, slot + span))] = True
            # Subtract the expected geometric tail min over k member chains.
            tail = stay_dd ** len(starters)
            correction = tail / (1.0 - tail) if tail < 1.0 else 0.0
            durations.append(max(1.0, span - correction))
            if previous_start is not None:
                gaps.append(int(slot - previous_start))
            previous_start = slot
            num_events += 1
    if num_events == 0:
        raise TraceFitError("no domain reached its event quorum")

    mean_outage = float(max(1.0, np.mean(durations)))
    outage_per_domain = sum(durations) / len(domains)
    rate = float(
        min(1.0, (num_events / len(domains)) / max(1.0, horizon - outage_per_domain))
    )

    # Base chain: pooled transitions outside the detected overlay spans.
    base_counts = np.zeros((3, 3), dtype=np.int64)
    clean = ~overlay_mask
    usable = clean[:, :-1] & clean[:, 1:]
    np.add.at(base_counts, (matrix[:, :-1][usable], matrix[:, 1:][usable]), 1)
    base_matrix = np.eye(3)
    for index in range(3):
        total = base_counts[index].sum()
        if total > 0:
            base_matrix[index] = base_counts[index] / total

    duration_samples = np.asarray(durations)
    gap_cdf = _geometric_cdf(rate)
    duration_cdf = _geometric_cdf(1.0 / mean_outage)
    ks = {
        "duration": ks_distance(duration_samples, duration_cdf),
        "gap": ks_distance(gaps, gap_cdf) if gaps else float("nan"),
        "UP": float("nan"),
        "RECLAIMED": float("nan"),
        "DOWN": ks_distance(duration_samples, duration_cdf),
    }
    log_likelihood = _sojourn_log_likelihood(
        "geometric", GeometricHolding(min(1.0, 1.0 / mean_outage)), duration_samples
    )
    if gaps:
        log_likelihood += _sojourn_log_likelihood(
            "geometric", GeometricHolding(rate), np.asarray(gaps, dtype=float)
        )

    def hazard_builder(workers: int):
        from repro.hazards.process import DomainOutageProcess

        return DomainOutageProcess(
            workers, domains=len(domains), rate=rate, mean_outage=mean_outage
        )

    return FittedModel(
        kind="correlated",
        parameters={
            "domains": len(domains),
            "rate": rate,
            "mean_outage": mean_outage,
            "members": [list(map(int, members)) for members in domains],
            "num_events": num_events,
            "stay_dd": stay_dd,
            "base_matrix": base_matrix.tolist(),
        },
        log_likelihood=log_likelihood,
        num_transitions=num_events,
        ks=ks,
        _builder=lambda: MarkovAvailabilityModel(base_matrix),
        _hazard_builder=hazard_builder,
    )


# ----------------------------------------------------------------------
# Degradation (wear levels from sojourn statistics)
# ----------------------------------------------------------------------
def fit_degradation(
    data: Union[AvailabilityTrace, np.ndarray, Sequence],
    *,
    pm_level: int = 3,
    fail_level: int = 6,
    pm_family: str = "lognormal",
    cm_family: str = "lognormal",
    censor_edges: bool = True,
) -> FittedModel:
    """Fit a :class:`~repro.hazards.DegradationAvailabilityModel`.

    Wear levels are latent, so ``pm_level`` and ``fail_level`` are
    *structural* options (only their gap and the observable sojourn/repair
    statistics are identifiable).  The estimator inverts the model's
    observable laws: the fraction of interruptions that are corrective
    (DOWN) rather than preventive (RECLAIMED) determines ``compliance``
    through :math:`p_{cm} = (1 - c)^{fail - pm}`; the mean UP sojourn then
    determines ``wear_rate`` through the expected number of wear increments
    per service cycle; the repair sojourn families are fitted to the
    RECLAIMED and DOWN interval lengths.
    """
    pm_level = int(pm_level)
    fail_level = int(fail_level)
    if pm_level < 1 or fail_level <= pm_level:
        raise TraceFitError(
            f"need fail_level > pm_level >= 1, got pm_level={pm_level}, "
            f"fail_level={fail_level}"
        )
    for family in (pm_family, cm_family):
        if family not in _SOJOURN_FITTERS:
            raise TraceFitError(
                f"unknown sojourn family {family!r}; expected one of {SOJOURN_FAMILIES}"
            )
    sequences = _sequences_of(data)

    # Interruption split: UP -> RECLAIMED (preventive) vs UP -> DOWN (corrective).
    num_pm = 0
    num_cm = 0
    for sequence in sequences:
        runs = state_runs(sequence)
        for (state, _), (target, _) in zip(runs, runs[1:]):
            if state is UP and target is RECLAIMED:
                num_pm += 1
            elif state is UP and target is DOWN:
                num_cm += 1
    interruptions = num_pm + num_cm
    if interruptions == 0:
        raise TraceFitError(
            "cannot fit a degradation model: the trace has no UP interruptions"
        )
    span = fail_level - pm_level
    p_cm = num_cm / interruptions
    if p_cm >= 1.0:
        compliance = 0.0
    elif p_cm <= 0.0:
        compliance = 1.0
    else:
        compliance = float(1.0 - p_cm ** (1.0 / span))

    # Expected wear increments per service cycle under the fitted compliance.
    if compliance <= 0.0:
        mean_increments = float(fail_level)
    else:
        mean_increments = pm_level + sum(
            (1.0 - compliance) ** j for j in range(1, span + 1)
        )

    intervals = _pooled_intervals(sequences, censor_edges=censor_edges)
    up_lengths = np.asarray(intervals[UP], dtype=float)
    if up_lengths.size == 0:
        raise TraceFitError("no complete UP sojourn observed; trace too short")
    mean_up = float(np.mean(up_lengths))
    wear_rate = float(min(1.0, mean_increments / mean_up))

    sojourns: List[SojournFit] = []
    ks: Dict[str, float] = {}
    # The UP-cycle law has no closed form; diagnose against its geometric
    # approximation (same convention as the diurnal fitter's marginals).
    up_cdf = _geometric_cdf(min(1.0, 1.0 / mean_up))
    ks["UP"] = ks_distance(up_lengths, up_cdf)
    log_likelihood = _sojourn_log_likelihood(
        "geometric", GeometricHolding(min(1.0, 1.0 / mean_up)), up_lengths
    )
    if 0.0 < p_cm < 1.0:
        log_likelihood += num_cm * float(np.log(p_cm)) + num_pm * float(np.log(1.0 - p_cm))

    repair_times: Dict[ProcessorState, HoldingTimeDistribution] = {}
    parameters: Dict[str, object] = {}
    for state, family in ((RECLAIMED, pm_family), (DOWN, cm_family)):
        lengths = np.asarray(intervals[state], dtype=float)
        if lengths.size == 0:
            distribution, params = GeometricHolding(1.0), {"p": 1.0}
            family = "geometric"
            state_ks = float("nan")
            state_ll = 0.0
        else:
            distribution, params = _SOJOURN_FITTERS[family](lengths)
            state_ks = ks_distance(lengths, _sojourn_cdf(family, distribution))
            state_ll = _sojourn_log_likelihood(family, distribution, lengths)
        repair_times[state] = distribution
        ks[state.name] = state_ks
        log_likelihood += state_ll
        sojourns.append(
            SojournFit(
                state=state,
                family=family,
                distribution=distribution,
                num_intervals=int(lengths.size),
                ks=state_ks,
                log_likelihood=state_ll,
            )
        )
        parameters[state.name.lower()] = {"family": family, **params}

    parameters.update(
        wear_rate=wear_rate,
        pm_level=pm_level,
        fail_level=fail_level,
        compliance=compliance,
        num_pm=num_pm,
        num_cm=num_cm,
        mean_up=mean_up,
    )

    def build():
        from repro.hazards.degradation import DegradationAvailabilityModel

        return DegradationAvailabilityModel(
            wear_rate=wear_rate,
            pm_level=pm_level,
            fail_level=fail_level,
            compliance=compliance,
            pm_time=repair_times[RECLAIMED],
            cm_time=repair_times[DOWN],
        )

    return FittedModel(
        kind="degradation",
        parameters=parameters,
        log_likelihood=log_likelihood,
        num_transitions=interruptions,
        ks=ks,
        sojourns=tuple(sojourns),
        _builder=build,
    )


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def fit_model(
    kind: str,
    data: Union[AvailabilityTrace, np.ndarray, Sequence],
    **options,
) -> FittedModel:
    """Fit the model family *kind* (one of :data:`FIT_KINDS`) to *data*."""
    if kind == "markov":
        return fit_markov(data, **options)
    if kind == "semi-markov":
        return fit_semi_markov(data, **options)
    if kind == "diurnal":
        return fit_diurnal(data, **options)
    if kind == "correlated":
        return fit_correlated(data, **options)
    if kind == "degradation":
        return fit_degradation(data, **options)
    raise TraceFitError(f"unknown fit kind {kind!r}; expected one of {FIT_KINDS}")
