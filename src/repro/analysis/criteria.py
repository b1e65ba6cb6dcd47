"""The four scheduling criteria of Section VI.

Each criterion maps a :class:`~repro.analysis.evaluation.ConfigurationEstimate`
(or its ``(probability, expected time)`` pair) to a scalar figure of merit:

* **P** — probability of success of the iteration (higher is better);
* **E** — expected completion time of the iteration (lower is better);
* **Y** — expected yield ``P / (t + E)`` where ``t`` is the time already
  spent in the current iteration (higher is better);
* **AY** — apparent yield ``P / E``, i.e. the yield of the *remaining* work
  only (higher is better).

Criteria are used in two roles:

1. as the *selection* rule of the incremental passive heuristics (assign the
   next task to the worker that optimises the criterion), and
2. as the *switching* rule of the proactive heuristics (abandon the current
   configuration when a freshly computed one scores strictly better).

The paper only retains P, E and Y for the proactive role because AY does not
satisfy the anti-divergence constraint (a configuration that has been running
longer must never score worse than the same configuration started later).

Every criterion value is a function of a ``(probability, expected time)``
pair and the elapsed time: :func:`success_probability`,
:func:`expected_time`, :func:`yield_value` and :func:`apparent_yield` are the
one set of float expressions that both
:class:`~repro.analysis.evaluation.ConfigurationEstimate` and the proactive
switch test (:meth:`Criterion.pair_value`) compute them with.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Dict, Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.evaluation import ConfigurationEstimate

__all__ = [
    "Criterion",
    "ProbabilityCriterion",
    "ExpectedTimeCriterion",
    "YieldCriterion",
    "ApparentYieldCriterion",
    "get_criterion",
    "PROACTIVE_CRITERIA",
    "success_probability",
    "expected_time",
    "yield_value",
    "apparent_yield",
]


def success_probability(comm_probability: float, comp_probability: float) -> float:
    """``P = P_comm × P_comp``."""
    return comm_probability * comp_probability


def expected_time(comm_time: float, comp_time: float) -> float:
    """``E = E_comm + E_comp`` (remaining time, in slots)."""
    return comm_time + comp_time


def yield_value(probability: float, expected: float, elapsed: int) -> float:
    """``Y = P / (t + E)`` — the expected inverse iteration duration."""
    denominator = elapsed + expected
    if denominator <= 0.0:
        return math.inf if probability > 0 else 0.0
    return probability / denominator


def apparent_yield(probability: float, expected: float) -> float:
    """``AY = P / E`` — yield of the remaining work only."""
    if expected <= 0.0:
        return math.inf if probability > 0 else 0.0
    return probability / expected


class Criterion(abc.ABC):
    """A scalar figure of merit over configuration estimates."""

    #: Short name used in heuristic identifiers ("P", "E", "Y", "AY").
    name: str = "?"
    #: Whether larger values are preferable.
    higher_is_better: bool = True
    #: Whether the criterion satisfies the proactive anti-divergence
    #: constraint of Section VI-B (a configuration's score must not degrade
    #: as it accumulates progress).
    proactive_safe: bool = True

    @abc.abstractmethod
    def pair_value(self, probability: float, expected: float, elapsed: int) -> float:
        """The criterion value of a configuration with success probability
        *probability* and expected remaining time *expected*, *elapsed* slots
        into its iteration."""

    def value(self, estimate: "ConfigurationEstimate") -> float:
        """The criterion value of *estimate*."""
        return self.pair_value(
            estimate.success_probability, estimate.expected_time, estimate.elapsed
        )

    # ------------------------------------------------------------------
    def better(self, candidate: float, incumbent: float) -> bool:
        """Whether the scalar *candidate* is strictly better than *incumbent*."""
        if math.isnan(candidate):
            return False
        if math.isnan(incumbent):
            return True
        if self.higher_is_better:
            return candidate > incumbent
        return candidate < incumbent

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Criterion {self.name}>"


class ProbabilityCriterion(Criterion):
    """P — probability of successfully completing the iteration."""

    name = "P"
    higher_is_better = True
    proactive_safe = True

    def pair_value(self, probability: float, expected: float, elapsed: int) -> float:
        return probability


class ExpectedTimeCriterion(Criterion):
    """E — expected (remaining) completion time of the iteration."""

    name = "E"
    higher_is_better = False
    proactive_safe = True

    def pair_value(self, probability: float, expected: float, elapsed: int) -> float:
        return expected


class YieldCriterion(Criterion):
    """Y — expected yield ``P / (t + E)`` with ``t`` the elapsed iteration time."""

    name = "Y"
    higher_is_better = True
    proactive_safe = True

    def pair_value(self, probability: float, expected: float, elapsed: int) -> float:
        return yield_value(probability, expected, elapsed)


class ApparentYieldCriterion(Criterion):
    """AY — apparent yield ``P / E`` (remaining work only).

    Not proactive-safe: as a configuration nears completion its apparent
    yield can oscillate in a way that lets a lower-ranked configuration
    displace it repeatedly, so the paper excludes it from the proactive
    criteria.
    """

    name = "AY"
    higher_is_better = True
    proactive_safe = False

    def pair_value(self, probability: float, expected: float, elapsed: int) -> float:
        return apparent_yield(probability, expected)


_CRITERIA: Dict[str, Type[Criterion]] = {
    "P": ProbabilityCriterion,
    "E": ExpectedTimeCriterion,
    "Y": YieldCriterion,
    "AY": ApparentYieldCriterion,
}

#: The criteria the paper allows as proactive switching rules.
PROACTIVE_CRITERIA = ("P", "E", "Y")


def get_criterion(name: str) -> Criterion:
    """Instantiate a criterion by its short name (case-insensitive)."""
    key = str(name).strip().upper()
    try:
        return _CRITERIA[key]()
    except KeyError:
        raise ValueError(
            f"unknown criterion {name!r}; expected one of {sorted(_CRITERIA)}"
        ) from None
