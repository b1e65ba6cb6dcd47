"""Analytical approximations of Section V and the derived scheduling criteria.

Under the 3-state Markov availability model, this subpackage computes (up to
an arbitrary precision ``ε``, per Theorem 5.1):

* ``P₊^(S)`` — the probability that a set ``S`` of workers, all UP now, will
  all be simultaneously UP again before any of them goes DOWN;
* ``E^(S)(W)`` — the conditional expectation of the number of slots needed to
  complete ``W`` slots of simultaneous computation, given success;
* the coarser communication-phase estimates ``E_comm^(S)`` and
  ``P_comm^(S)`` of Section V-B;
* the four scheduling criteria built on top of these quantities
  (probability of success, expected completion time, yield, apparent yield).

The entry point used by the schedulers is :class:`AnalysisContext`, which
caches per-worker spectra and per-set group quantities, plus
:func:`evaluate_configuration` which turns a candidate configuration into a
:class:`ConfigurationEstimate` (probability / expected time / yield).
"""

from repro.analysis.cache import AnalysisContext, EvaluationRequest
from repro.analysis.communication import CommunicationEstimate, estimate_communication
from repro.analysis.criteria import (
    ApparentYieldCriterion,
    Criterion,
    ExpectedTimeCriterion,
    ProbabilityCriterion,
    YieldCriterion,
    get_criterion,
)
from repro.analysis.evaluation import ConfigurationEstimate, evaluate_configuration
from repro.analysis.group import ExpectationMode, GroupAnalysis, GroupQuantities
from repro.analysis.single import WorkerAnalysis

__all__ = [
    "AnalysisContext",
    "EvaluationRequest",
    "WorkerAnalysis",
    "GroupAnalysis",
    "GroupQuantities",
    "ExpectationMode",
    "CommunicationEstimate",
    "estimate_communication",
    "ConfigurationEstimate",
    "evaluate_configuration",
    "Criterion",
    "ProbabilityCriterion",
    "ExpectedTimeCriterion",
    "YieldCriterion",
    "ApparentYieldCriterion",
    "get_criterion",
]
