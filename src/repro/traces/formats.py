"""Ingestion of recorded availability logs into :class:`AvailabilityTrace`.

Desktop-grid availability archives come in a handful of shapes; this module
parses the three the trace subsystem understands and normalises them all to
the library's internal representation (an int8 state matrix, one row per
processor, one column per slot — exactly what the simulator's vectorised
``sample_block`` path replays):

* **interval CSV** (FTA-style): one ``node,start,end,state`` row per
  recorded interval, times in arbitrary units (``slot_duration`` converts
  them to slots);
* **JSONL event streams**: one JSON object per line with ``node``, ``time``
  and ``state`` keys — each event sets the node's state from that time until
  its next event;
* **compact strings**: one ``"uurdd..."`` line per processor (the
  serialisation :class:`~repro.availability.trace.AvailabilityTrace` has
  always used), or the library's JSON trace payload.

Discretisation assigns each interval the slots ``[round(start / slot),
round(end / slot))`` — a boundary slot belongs to whichever interval covers
the majority of it.  Slots no interval claims are resolved by the *gap
policy*; slots two intervals claim by the *overlap policy*.

:class:`TraceCatalog` wraps a directory of such files as a lazily-loaded,
named collection of multi-processor datasets, with per-dataset ingestion
options in an optional ``catalog.json``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.availability.trace import AvailabilityTrace
from repro.exceptions import ReproError
from repro.types import DOWN, ProcessorState

__all__ = [
    "TraceFormatError",
    "GAP_POLICIES",
    "OVERLAP_POLICIES",
    "TRACE_SUFFIXES",
    "trace_from_intervals",
    "load_interval_csv",
    "load_jsonl_events",
    "load_compact",
    "load_trace",
    "write_interval_csv",
    "write_jsonl_events",
    "write_compact",
    "write_json",
    "write_trace",
    "TraceCatalog",
]


class TraceFormatError(ReproError, ValueError):
    """A recorded trace file cannot be parsed or discretised."""


#: How slots not covered by any recorded interval are filled: ``down``
#: (machine absent from the log = crashed, the FTA convention), ``hold``
#: (the previous state persists; leading gaps are DOWN), or ``error``.
GAP_POLICIES = ("down", "hold", "error")

#: How slots claimed by two intervals are resolved: ``error`` (default),
#: ``first`` (earliest-written interval wins) or ``last``.
OVERLAP_POLICIES = ("error", "first", "last")

#: File suffix -> format dispatched by :func:`load_trace` / :class:`TraceCatalog`.
TRACE_SUFFIXES = {
    ".csv": "csv",
    ".jsonl": "jsonl",
    ".ndjson": "jsonl",
    ".json": "json",
    ".trace": "compact",
    ".txt": "compact",
}

_UNSET = -1  # sentinel state code for "no interval claimed this slot yet"


def _slot_index(time: float, slot_duration: float) -> int:
    """Half-up rounding of ``time / slot_duration`` (deterministic, no banker's)."""
    return int(math.floor(time / slot_duration + 0.5))


def _read_text(source: Union[str, Path]) -> str:
    path = Path(source)
    try:
        return path.read_text()
    except OSError as error:
        raise TraceFormatError(f"cannot read trace file {path}: {error}") from error


def trace_from_intervals(
    intervals: Iterable[Tuple[str, float, float, Union[str, int]]],
    *,
    slot_duration: float = 1.0,
    gap: str = "down",
    overlap: str = "error",
    horizon: Optional[int] = None,
) -> AvailabilityTrace:
    """Discretise ``(node, start, end, state)`` interval records into a trace.

    Nodes become rows in sorted node-name order.  ``horizon`` forces the
    number of slots (missing tail slots follow the gap policy, longer
    recordings are truncated); when omitted the latest interval end defines
    it.
    """
    if slot_duration <= 0:
        raise TraceFormatError(f"slot_duration must be > 0, got {slot_duration}")
    if gap not in GAP_POLICIES:
        raise TraceFormatError(f"unknown gap policy {gap!r}; expected one of {GAP_POLICIES}")
    if overlap not in OVERLAP_POLICIES:
        raise TraceFormatError(
            f"unknown overlap policy {overlap!r}; expected one of {OVERLAP_POLICIES}"
        )
    per_node: Dict[str, List[Tuple[int, int, int]]] = {}
    last_slot = 0
    for record_index, record in enumerate(intervals):
        try:
            node, start, end, state = record
            start = float(start)
            end = float(end)
            code = int(ProcessorState.coerce(state))
        except (TypeError, ValueError) as error:
            raise TraceFormatError(f"bad interval record #{record_index}: {error}") from error
        if end < start:
            raise TraceFormatError(
                f"interval record #{record_index}: end {end} precedes start {start}"
            )
        first = _slot_index(start, slot_duration)
        stop = _slot_index(end, slot_duration)
        if first < 0:
            raise TraceFormatError(f"interval record #{record_index}: negative start time")
        per_node.setdefault(str(node), []).append((first, stop, code))
        last_slot = max(last_slot, stop)
    if not per_node:
        raise TraceFormatError("no interval records: a trace needs at least one node")
    num_slots = last_slot if horizon is None else int(horizon)
    if num_slots < 1:
        raise TraceFormatError(f"trace horizon must be >= 1 slot, got {num_slots}")

    nodes = sorted(per_node)
    matrix = np.full((len(nodes), num_slots), _UNSET, dtype=np.int8)
    for row, node in enumerate(nodes):
        for first, stop, code in per_node[node]:
            first = min(first, num_slots)
            stop = min(stop, num_slots)
            if stop <= first:
                continue  # interval shorter than half a slot, or past the horizon
            window = matrix[row, first:stop]
            claimed = window != _UNSET
            if claimed.any() and overlap == "error":
                clash = first + int(np.flatnonzero(claimed)[0])
                raise TraceFormatError(
                    f"node {node!r}: overlapping intervals claim slot {clash} "
                    "(pass overlap='first' or 'last' to resolve)"
                )
            if overlap == "first":
                window[~claimed] = code
            else:
                window[:] = code
    _fill_gaps(matrix, nodes, gap)
    return AvailabilityTrace(matrix)


def _fill_gaps(matrix: np.ndarray, nodes: Sequence[str], gap: str) -> None:
    """Resolve ``_UNSET`` slots in place according to the gap policy."""
    for row, node in enumerate(nodes):
        holes = matrix[row] == _UNSET
        if not holes.any():
            continue
        if gap == "error":
            raise TraceFormatError(
                f"node {node!r}: slot {int(np.flatnonzero(holes)[0])} is covered by "
                "no interval (pass gap='down' or 'hold' to fill gaps)"
            )
        if gap == "down":
            matrix[row, holes] = int(DOWN)
            continue
        # gap == "hold": each hole repeats the last recorded state before it;
        # leading holes (no state yet) are DOWN.
        values = matrix[row].astype(np.int64)
        indices = np.arange(values.size)
        known = np.where(holes, -1, indices)
        carried = np.maximum.accumulate(known)
        filled = np.where(carried >= 0, values[np.maximum(carried, 0)], int(DOWN))
        matrix[row] = filled.astype(np.int8)


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------
def load_interval_csv(
    source: Union[str, Path],
    *,
    slot_duration: float = 1.0,
    gap: str = "down",
    overlap: str = "error",
    horizon: Optional[int] = None,
) -> AvailabilityTrace:
    """Parse an FTA-style ``node,start,end,state`` CSV file into a trace.

    A header row is recognised (and skipped) when its second column is not
    numeric.  ``state`` accepts the single-character codes ``u``/``r``/``d``
    or the integer codes 0/1/2.
    """
    text = _read_text(source)
    records: List[Tuple[str, float, float, str]] = []
    header_skipped = False
    for line_number, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if row[0].lstrip().startswith("#"):
            continue
        if len(row) != 4:
            raise TraceFormatError(
                f"{source}:{line_number}: expected 4 columns (node,start,end,state), "
                f"got {len(row)}"
            )
        node, start, end, state = (column.strip() for column in row)
        try:
            start_time = float(start)
            end_time = float(end)
        except ValueError:
            if not records and not header_skipped:
                header_skipped = True
                continue  # header row (possibly after comments/blank lines)
            raise TraceFormatError(
                f"{source}:{line_number}: non-numeric start/end "
                f"({start!r}, {end!r})"
            ) from None
        records.append((node, start_time, end_time, state))
    if not records:
        raise TraceFormatError(f"{source}: no interval rows found")
    return trace_from_intervals(
        records, slot_duration=slot_duration, gap=gap, overlap=overlap, horizon=horizon
    )


def load_jsonl_events(
    source: Union[str, Path],
    *,
    slot_duration: float = 1.0,
    gap: str = "down",
    overlap: str = "error",
    horizon: Optional[int] = None,
) -> AvailabilityTrace:
    """Parse a JSONL event stream (``{"node":…, "time":…, "state":…}`` per line).

    Each event sets the node's state from its time until the node's next
    event; the final event of each node extends to the trace horizon (the
    latest event time across all nodes unless ``horizon`` is given).  Events
    need not be sorted — they are ordered per node before conversion.
    """
    text = _read_text(source)
    events: Dict[str, List[Tuple[float, int]]] = {}
    latest = 0.0
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            payload = json.loads(line)
            node = str(payload["node"])
            time = float(payload["time"])
            code = int(ProcessorState.coerce(payload["state"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            raise TraceFormatError(f"{source}:{line_number}: bad event: {error}") from error
        events.setdefault(node, []).append((time, code))
        latest = max(latest, time)
    if not events:
        raise TraceFormatError(f"{source}: no events found")
    end_time = latest if horizon is None else horizon * slot_duration
    records: List[Tuple[str, float, float, int]] = []
    for node, node_events in events.items():
        node_events.sort(key=lambda event: event[0])
        for (time, code), (next_time, _) in zip(node_events, node_events[1:]):
            records.append((node, time, next_time, code))
        final_time, final_code = node_events[-1]
        if final_time < end_time:
            records.append((node, final_time, end_time, final_code))
    return trace_from_intervals(
        records, slot_duration=slot_duration, gap=gap, overlap=overlap, horizon=horizon
    )


def load_compact(source: Union[str, Path]) -> AvailabilityTrace:
    """Parse a compact-string file: one ``"uurdd..."`` row per processor."""
    rows = []
    for line in _read_text(source).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise TraceFormatError(f"{source}: no trace rows found")
    try:
        return AvailabilityTrace(rows)
    except (ValueError, ReproError) as error:
        raise TraceFormatError(f"{source}: {error}") from error


def load_trace(
    source: Union[str, Path],
    *,
    slot_duration: float = 1.0,
    gap: str = "down",
    overlap: str = "error",
    horizon: Optional[int] = None,
) -> AvailabilityTrace:
    """Load any supported trace file, dispatching the format by suffix.

    ``.csv`` is interval CSV, ``.jsonl``/``.ndjson`` a JSONL event stream,
    ``.json`` the library's trace payload, ``.trace``/``.txt`` compact
    strings (see :data:`TRACE_SUFFIXES`).  The discretisation options apply
    to the timed formats only — compact/JSON rows are already slotted.
    """
    path = Path(source)
    kind = TRACE_SUFFIXES.get(path.suffix.lower())
    if kind is None:
        raise TraceFormatError(
            f"unrecognised trace file suffix {path.suffix!r} for {path} "
            f"(expected one of {sorted(TRACE_SUFFIXES)})"
        )
    if kind == "csv":
        return load_interval_csv(
            path, slot_duration=slot_duration, gap=gap, overlap=overlap, horizon=horizon
        )
    if kind == "jsonl":
        return load_jsonl_events(
            path, slot_duration=slot_duration, gap=gap, overlap=overlap, horizon=horizon
        )
    if kind == "json":
        try:
            payload = json.loads(_read_text(path))
            return AvailabilityTrace.from_dict(payload)
        except (json.JSONDecodeError, ValueError, ReproError) as error:
            raise TraceFormatError(f"{path}: {error}") from error
    return load_compact(path)


# ----------------------------------------------------------------------
# Writers (inverses of the readers, used by ``repro traces convert``)
# ----------------------------------------------------------------------
def _trace_runs(trace: AvailabilityTrace) -> List[List[Tuple[int, int, int]]]:
    """Per-row run-length encoding: lists of ``(first_slot, stop_slot, code)``."""
    from repro.availability.statistics import state_runs

    encoded = []
    for row in range(trace.num_processors):
        runs = []
        position = 0
        for state, length in state_runs(trace.row(row)):
            runs.append((position, position + length, int(state)))
            position += length
        encoded.append(runs)
    return encoded


def _node_name(index: int, count: int) -> str:
    width = max(2, len(str(count - 1)))
    return f"node{index:0{width}d}"


def write_interval_csv(
    trace: AvailabilityTrace,
    path: Union[str, Path],
    *,
    slot_duration: float = 1.0,
    header: bool = True,
) -> Path:
    """Write *trace* as an FTA-style interval CSV (inverse of the loader)."""
    path = Path(path)
    lines = ["node,start,end,state"] if header else []
    for row, runs in enumerate(_trace_runs(trace)):
        node = _node_name(row, trace.num_processors)
        for first, stop, code in runs:
            state = ProcessorState(code).char
            lines.append(
                f"{node},{_format_time(first * slot_duration)},"
                f"{_format_time(stop * slot_duration)},{state}"
            )
    path.write_text("\n".join(lines) + "\n")
    return path


def write_jsonl_events(
    trace: AvailabilityTrace,
    path: Union[str, Path],
    *,
    slot_duration: float = 1.0,
) -> Path:
    """Write *trace* as a JSONL event stream (inverse of the loader).

    Besides one event per state change, each node gets a terminal event at
    the trace end repeating its final state, so the stream is
    self-delimiting: reloading without an explicit ``horizon`` recovers the
    full recording (the loader's implicit horizon is the latest event time,
    and the terminal event's own interval is empty).
    """
    path = Path(path)
    lines = []
    for row, runs in enumerate(_trace_runs(trace)):
        node = _node_name(row, trace.num_processors)
        events = [(first, code) for first, _stop, code in runs]
        events.append((trace.horizon, events[-1][1]))
        for first, code in events:
            lines.append(
                json.dumps(
                    {
                        "node": node,
                        "time": first * slot_duration,
                        "state": ProcessorState(code).char,
                    },
                    sort_keys=True,
                )
            )
    path.write_text("\n".join(lines) + "\n")
    return path


def write_compact(trace: AvailabilityTrace, path: Union[str, Path]) -> Path:
    """Write *trace* as compact per-processor strings, one per line."""
    path = Path(path)
    path.write_text("\n".join(trace.to_strings()) + "\n")
    return path


def write_json(trace: AvailabilityTrace, path: Union[str, Path]) -> Path:
    """Write *trace* as the library's JSON payload (``AvailabilityTrace.to_dict``)."""
    path = Path(path)
    path.write_text(json.dumps(trace.to_dict()) + "\n")
    return path


_WRITERS = {
    "csv": write_interval_csv,
    "jsonl": write_jsonl_events,
    "compact": write_compact,
    "json": write_json,
}


def write_trace(
    trace: AvailabilityTrace,
    path: Union[str, Path],
    *,
    format: Optional[str] = None,
    slot_duration: float = 1.0,
) -> Path:
    """Write *trace* in any supported format (by suffix, or explicit ``format``)."""
    path = Path(path)
    kind = format or TRACE_SUFFIXES.get(path.suffix.lower())
    if kind not in _WRITERS:
        raise TraceFormatError(
            f"cannot infer an output format for {path} "
            f"(pass format= one of {sorted(_WRITERS)})"
        )
    writer = _WRITERS[kind]
    if kind in ("csv", "jsonl"):
        return writer(trace, path, slot_duration=slot_duration)
    return writer(trace, path)


def _format_time(value: float) -> str:
    """Render times without a trailing ``.0`` when they are whole."""
    return str(int(value)) if float(value).is_integer() else repr(value)


# ----------------------------------------------------------------------
# Catalogues of named datasets
# ----------------------------------------------------------------------
class TraceCatalog:
    """A directory of recorded datasets, loaded lazily by name.

    Every file with a recognised suffix (see :data:`TRACE_SUFFIXES`) is a
    dataset; its name is the file stem.  An optional ``catalog.json`` maps
    dataset names to ingestion options (``slot``, ``gap``, ``overlap``,
    ``horizon``), so e.g. a CSV with 15-minute timestamps can declare
    ``{"desktop_week": {"slot": 900}}`` once instead of every caller passing
    ``slot_duration=900``.  Loaded traces are cached; the catalogue is the
    backing store of the ``trace-catalog`` availability substrate.
    """

    OPTIONS_FILE = "catalog.json"

    def __init__(self, directory: Union[str, Path]):
        self._directory = Path(directory)
        if not self._directory.is_dir():
            raise TraceFormatError(f"trace catalog directory {self._directory} does not exist")
        self._paths: Dict[str, Path] = {}
        for path in sorted(self._directory.iterdir()):
            if path.suffix.lower() not in TRACE_SUFFIXES or not path.is_file():
                continue
            if path.name == self.OPTIONS_FILE:
                continue
            if path.stem in self._paths:
                raise TraceFormatError(
                    f"trace catalog {self._directory}: duplicate dataset name "
                    f"{path.stem!r} ({self._paths[path.stem].name} vs {path.name})"
                )
            self._paths[path.stem] = path
        self._options = self._load_options()
        self._cache: Dict[tuple, AvailabilityTrace] = {}

    def _load_options(self) -> Dict[str, dict]:
        options_path = self._directory / self.OPTIONS_FILE
        if not options_path.exists():
            return {}
        try:
            payload = json.loads(options_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise TraceFormatError(f"cannot read {options_path}: {error}") from error
        if not isinstance(payload, dict):
            raise TraceFormatError(f"{options_path} must hold one JSON object")
        return {str(name): dict(opts) for name, opts in payload.items()}

    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._directory

    def names(self) -> List[str]:
        """Dataset names, sorted."""
        return sorted(self._paths)

    def __contains__(self, name: str) -> bool:
        return name in self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def path(self, name: str) -> Path:
        """The file backing dataset *name*."""
        try:
            return self._paths[name]
        except KeyError:
            raise TraceFormatError(
                f"trace catalog {self._directory} has no dataset {name!r} "
                f"(available: {self.names()})"
            ) from None

    def load(self, name: str, *, defaults: Optional[dict] = None) -> AvailabilityTrace:
        """Load (and cache) dataset *name*.

        ``defaults`` supplies caller-side ingestion options (``slot``,
        ``gap``, ``overlap``, ``horizon`` — e.g. from a campaign spec or CLI
        flags); per-dataset ``catalog.json`` entries take precedence over
        them.  The cache is keyed by the effective options, so the same
        dataset loaded under different discretisations stays distinct.
        """
        effective = {**(defaults or {}), **self._options.get(name, {})}
        key = (name, tuple(sorted(effective.items())))
        cached = self._cache.get(key)
        if cached is None:
            cached = load_trace(
                self.path(name),
                slot_duration=float(effective.get("slot", 1.0)),
                gap=str(effective.get("gap", "down")),
                overlap=str(effective.get("overlap", "error")),
                horizon=effective.get("horizon"),
            )
            self._cache[key] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TraceCatalog {self._directory} datasets={self.names()}>"
