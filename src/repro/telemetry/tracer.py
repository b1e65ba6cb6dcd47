"""Zero-dependency span tracer emitting JSONL records.

The tracer is the system-level complement of the per-slot simulation
metrics collector: where :class:`repro.metrics.MetricsCollector` samples
*simulated* quantities, :class:`Tracer` records *wall-clock* spans across
the engine step loop, the allocator/analysis hot path, the service job
lifecycle, and HTTP request handling.

Design constraints (mirroring the collector):

* **Disabled tracing is free.**  Every instrumented call site takes
  ``tracer=None`` and guards with ``if tracer is not None`` — the disabled
  path is the exact pre-telemetry code path, so golden seeds stay
  bit-identical and the ``telemetry_overhead`` benchmark gate stays honest.
* **Thread- and process-safe.**  Each process appends to its own
  ``spans-<pid>.jsonl`` file inside the trace directory (re-opened after
  ``fork``), writes are line-buffered under a lock, and records carry the
  emitting pid so a multi-process campaign merges cleanly.
* **Cheap emission.**  Timings use :func:`time.perf_counter_ns`; a span
  record is one small dict serialised with compact separators.  For hot
  engine sites :meth:`Tracer.record` emits a span from a pre-captured
  start timestamp without entering a context manager, and the hottest
  sites (per-iteration engine phases, per-rebuild allocations) use
  :meth:`Tracer.accumulate`, which sums durations and counters in a
  thread-local dict and emits one aggregated record per ``(name, attrs)``
  key — with a ``calls`` counter — when :meth:`Tracer.flush_accumulated`
  runs at the end of the engine run.

Record shape (one JSON object per line)::

    {"name": "allocate", "ts": 1754..., "dur_us": 123.4, "pid": 4242,
     "cell": "paper-3", "heuristic": "IE", "counters": {"candidates": 57}}

``ts`` is the Unix wall-clock time at emission (end of the span);
``dur_us`` the monotonic duration in microseconds.  Correlation
attributes (``run``, ``cell``, ``heuristic``, ``trial``, ``job``) are
merged flat from the thread-local :meth:`Tracer.context` stack plus the
per-span keyword arguments; ``counters`` appears only when the span
accumulated any.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

__all__ = [
    "Span",
    "Tracer",
    "shared_tracer",
    "TRACE_FILE_PREFIX",
]

TRACE_FILE_PREFIX = "spans-"


class Span:
    """Mutable record handed to the body of a :meth:`Tracer.span` block.

    Attributes set via :meth:`add` (monotone counters) or by mutating
    :attr:`attrs` are serialised when the block exits.
    """

    __slots__ = ("name", "attrs", "counters")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.counters: Dict[str, Union[int, float]] = {}

    def add(self, key: str, amount: Union[int, float] = 1) -> None:
        """Accumulate *amount* into the span counter *key*."""
        self.counters[key] = self.counters.get(key, 0) + amount


class Tracer:
    """Span tracer writing JSONL records to per-process files.

    Parameters
    ----------
    directory:
        Target directory (created if missing).  Each process appends to
        ``spans-<pid>.jsonl`` inside it.
    run_id:
        Optional correlation id stamped on every record as ``run``.
    """

    def __init__(self, directory: Union[str, Path], *, run_id: Optional[str] = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid: Optional[int] = None
        self._handle = None

    # -- plumbing ---------------------------------------------------------

    @property
    def path(self) -> Path:
        """The span file this process writes to."""
        return self.directory / f"{TRACE_FILE_PREFIX}{os.getpid()}.jsonl"

    def _writer(self):
        pid = os.getpid()
        if self._handle is None or self._pid != pid:
            with self._lock:
                if self._handle is None or self._pid != pid:
                    # After fork the inherited handle belongs to the parent;
                    # drop the reference (never close another process's
                    # buffer) and open this process's own file.
                    self._handle = open(
                        self.directory / f"{TRACE_FILE_PREFIX}{pid}.jsonl",
                        "a",
                        encoding="utf-8",
                    )
                    self._pid = pid
        return self._handle

    def _context_attrs(self) -> Dict[str, Any]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else {}

    def _emit(
        self,
        name: str,
        start_ns: int,
        attrs: Dict[str, Any],
        counters: Optional[Dict[str, Union[int, float]]] = None,
    ) -> None:
        record: Dict[str, Any] = {
            "name": name,
            "ts": round(time.time(), 6),
            "dur_us": round((time.perf_counter_ns() - start_ns) / 1000.0, 1),
            "pid": os.getpid(),
        }
        if self.run_id is not None:
            record["run"] = self.run_id
        context = self._context_attrs()
        if context:
            record.update(context)
        if attrs:
            record.update(attrs)
        if counters:
            record["counters"] = counters
        line = json.dumps(record, separators=(",", ":"), default=str)
        handle = self._writer()
        with self._lock:
            handle.write(line + "\n")

    # -- public API -------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Time a block; emit one record when it exits (even on error)."""
        span = Span(name, attrs)
        start = time.perf_counter_ns()
        try:
            yield span
        finally:
            self._emit(span.name, start, span.attrs, span.counters or None)

    def record(self, name: str, start_ns: int, **attrs: Any) -> None:
        """Emit a span from a pre-captured ``perf_counter_ns`` start.

        The cheap form for hot call sites: the caller captures
        ``time.perf_counter_ns()`` itself and avoids the context-manager
        machinery entirely.
        """
        self._emit(name, start_ns, attrs)

    def accumulate(
        self,
        name: str,
        start_ns: int,
        counters: Optional[Dict[str, Union[int, float]]] = None,
        **attrs: Any,
    ) -> None:
        """Fold one occurrence into the thread-local aggregation buffer.

        The cheapest form, for call sites that fire thousands of times per
        engine run (per-iteration comm phases, per-rebuild allocations):
        instead of one JSON line per occurrence, durations and *counters*
        are summed per ``(name, attrs)`` key in a plain dict — no
        serialisation, no lock, no I/O — until :meth:`flush_accumulated`
        emits one record per key with ``dur_us`` the summed duration and a
        ``calls`` counter carrying the occurrence count (the profile
        aggregator uses it to recover true per-call means).  *attrs* are
        group identity: pass only values constant across the occurrences
        being merged (varying values belong in *counters*).
        """
        buffer = getattr(self._local, "pending", None)
        if buffer is None:
            buffer = self._local.pending = {}
        # Hot path: attrs dicts at one call site carry the same keys in the
        # same literal order, so the unsorted items tuple is a stable key.
        key = (name,) + tuple(attrs.items()) if attrs else (name,)
        entry = buffer.get(key)
        if entry is None:
            entry = buffer[key] = [name, attrs, 0, 0, {}]
        entry[2] += time.perf_counter_ns() - start_ns
        entry[3] += 1
        if counters:
            totals = entry[4]
            for counter, amount in counters.items():
                totals[counter] = totals.get(counter, 0) + amount

    def flush_accumulated(self) -> None:
        """Emit one record per accumulated ``(name, attrs)`` key.

        Flushes the *calling thread's* buffer (accumulation is thread-local)
        under whatever :meth:`context` is active at flush time — call it at
        a boundary still inside the run's context, e.g. the end of an engine
        run.  A no-op when nothing is pending.
        """
        buffer = getattr(self._local, "pending", None)
        if not buffer:
            return
        self._local.pending = {}
        for name, attrs, total_ns, calls, totals in buffer.values():
            self._emit(
                name, time.perf_counter_ns() - total_ns, attrs, {"calls": calls, **totals}
            )

    def event(self, name: str, **attrs: Any) -> None:
        """Emit an instantaneous (zero-duration) event record."""
        self._emit(name, time.perf_counter_ns(), attrs)

    @contextmanager
    def context(self, **attrs: Any) -> Iterator[None]:
        """Merge *attrs* into every record emitted by this thread inside.

        Contexts nest; inner values shadow outer ones for the same key.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        merged = {**stack[-1], **attrs} if stack else dict(attrs)
        stack.append(merged)
        try:
            yield
        finally:
            stack.pop()

    def flush(self) -> None:
        """Flush this thread's accumulation buffer and the span file."""
        self.flush_accumulated()
        with self._lock:
            if self._handle is not None and self._pid == os.getpid():
                self._handle.flush()

    def close(self) -> None:
        """Flush (including this thread's accumulated spans) and close."""
        self.flush_accumulated()
        with self._lock:
            if self._handle is not None and self._pid == os.getpid():
                self._handle.close()
            self._handle = None
            self._pid = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# One tracer per (process, trace directory): span files are buffered
# append-only streams, so two handles on the same file could interleave
# partial lines.  The cache is per-process state (process-pool children get
# an empty one) and the Tracer itself re-opens per pid after a fork.
_SHARED: Dict[str, Tracer] = {}
_SHARED_LOCK = threading.Lock()


def shared_tracer(directory: Union[str, Path]) -> Tracer:
    """The process-wide :class:`Tracer` for *directory* (one per process).

    Every component of one process that traces into the same directory —
    the service worker's ``job.run`` span, the campaign runner, the engines
    it drives — must share a single tracer so the per-pid span file has
    exactly one writer.
    """
    key = str(Path(directory))
    with _SHARED_LOCK:
        tracer = _SHARED.get(key)
        if tracer is None:
            tracer = _SHARED[key] = Tracer(directory)
        return tracer
