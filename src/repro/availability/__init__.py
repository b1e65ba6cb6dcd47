"""Processor-availability substrate.

The paper models each processor as an independent 3-state process
(UP / RECLAIMED / DOWN) observed at discrete time-slots.  This subpackage
provides:

* :class:`~repro.availability.model.AvailabilityModel` — the abstract
  interface used by the simulator (sample the next state given the current
  one) and by the schedulers (query the Markov transition matrix when one
  exists);
* :class:`~repro.availability.markov.MarkovAvailabilityModel` — the 3-state
  discrete-time Markov chain of Section V, with stationary analysis and
  seeded trajectory sampling;
* :class:`~repro.availability.trace.AvailabilityTrace` and
  :class:`~repro.availability.trace.TraceAvailabilityModel` — replay of
  pre-computed availability traces (used for the off-line problem, the
  Figure-1 golden test, and trace-driven experiments);
* :mod:`~repro.availability.semi_markov` — non-Markovian (Weibull /
  log-normal holding time) models used by the robustness extension that the
  paper's conclusion proposes as future work;
* :mod:`~repro.availability.generators` — random-model factories following
  the experimental methodology of Section VII-A;
* :mod:`~repro.availability.statistics` — empirical statistics of traces
  (state occupancy, interval-length distributions, empirical transition
  matrices).
"""

from repro.availability.diurnal import DiurnalAvailabilityModel, DiurnalPhase
from repro.availability.generators import (
    paper_transition_matrix,
    random_markov_model,
    random_markov_models,
)
from repro.availability.markov import MarkovAvailabilityModel
from repro.availability.model import AvailabilityModel
from repro.availability.semi_markov import (
    HoldingTimeDistribution,
    LogNormalHolding,
    SemiMarkovAvailabilityModel,
    WeibullHolding,
)
from repro.availability.statistics import TraceStatistics
from repro.availability.trace import AvailabilityTrace, TraceAvailabilityModel

__all__ = [
    "AvailabilityModel",
    "MarkovAvailabilityModel",
    "DiurnalAvailabilityModel",
    "DiurnalPhase",
    "AvailabilityTrace",
    "TraceAvailabilityModel",
    "SemiMarkovAvailabilityModel",
    "HoldingTimeDistribution",
    "WeibullHolding",
    "LogNormalHolding",
    "TraceStatistics",
    "paper_transition_matrix",
    "random_markov_model",
    "random_markov_models",
]
