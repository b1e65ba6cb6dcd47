"""Recorded-trace workloads: ingestion, model fitting, calibrated generation.

The paper's experiments run on synthetic substrates; its conclusion proposes
testing the heuristics' robustness on *recorded* desktop-grid availability.
This subpackage is that pipeline:

* :mod:`~repro.traces.formats` — parse interval CSV / JSONL event / compact
  string logs into :class:`~repro.availability.trace.AvailabilityTrace`
  matrices (int8 state codes, the simulator's vectorised replay format),
  with slot discretisation and gap/overlap policies;
  :class:`~repro.traces.formats.TraceCatalog` wraps a directory of named
  datasets;
* :mod:`~repro.traces.fit` — pooled and per-processor estimators producing
  calibrated Markov / semi-Markov / diurnal models with goodness-of-fit
  summaries (log-likelihood, per-state KS distances);
* :mod:`~repro.traces.resample` — bootstrap and block-bootstrap resamplers
  plus fit-then-sample generation.

Campaigns reach all of this through the availability registry: the
``trace-catalog``, ``trace-bootstrap`` and ``fitted`` substrates
(:mod:`repro.availability.registry`) accept any ingestible dataset, so one
spec can sweep replayed / resampled / fitted versions of the same recording.
The ``repro traces`` CLI (``convert``, ``stats``, ``fit``, ``sample``)
exposes the pipeline directly.
"""

from repro.traces.fit import (
    FIT_KINDS,
    FittedModel,
    SojournFit,
    TraceFitError,
    fit_correlated,
    fit_degradation,
    fit_diurnal,
    fit_markov,
    fit_model,
    fit_semi_markov,
    ks_distance,
)
from repro.traces.formats import (
    TraceCatalog,
    TraceFormatError,
    load_compact,
    load_interval_csv,
    load_jsonl_events,
    load_trace,
    trace_from_intervals,
    write_trace,
)
from repro.traces.resample import (
    TraceResampleError,
    block_bootstrap_row,
    bootstrap_models,
    bootstrap_rows,
    bootstrap_trace,
    fitted_trace,
)

__all__ = [
    "FIT_KINDS",
    "FittedModel",
    "SojournFit",
    "TraceCatalog",
    "TraceFitError",
    "TraceFormatError",
    "TraceResampleError",
    "block_bootstrap_row",
    "bootstrap_models",
    "bootstrap_rows",
    "bootstrap_trace",
    "fit_correlated",
    "fit_degradation",
    "fit_diurnal",
    "fit_markov",
    "fit_model",
    "fit_semi_markov",
    "fitted_trace",
    "ks_distance",
    "load_compact",
    "load_interval_csv",
    "load_jsonl_events",
    "load_trace",
    "trace_from_intervals",
    "write_trace",
]
