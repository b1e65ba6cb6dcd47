"""Per-layer timing ledger for a traced campaign invocation.

:class:`Ledger` wraps the public boundary of every layer of ``repro`` with a
timing shim at run time, inside one process, and removes the shims again
afterwards; nothing under ``src/`` changes.  Each shim records calls, total
time and *self* time (its duration minus the part covered by wrapped calls
nested inside it), plus a few counters read from the call's arguments or
result.  :func:`layer_metrics` turns a :meth:`Ledger.snapshot` (or the
:func:`merge_snapshots` of several) into the per-layer metrics documented in
``perfbench/README.md``.

Module-level functions are patched in every loaded module that bound them
(``from x import f`` copies the reference), so the shim sees every call;
:meth:`Ledger.restored` proves each patched attribute is its original object
again after :meth:`Ledger.uninstall`.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Ledger", "covered_seconds", "layer_metrics", "merge_snapshots"]


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


#: The layers a shim records into (see Ledger.install for their boundaries).
LAYERS = (
    "spec",
    "store.open",
    "store.read",
    "store.append",
    "scenario",
    "analysis.init",
    "analysis.evaluate",
    "analysis.prefetch",
    "availability",
    "engine.solo",
    "engine.onepass",
    "select.random",
    "select.passive",
    "select.proactive",
    "allocate",
    "runner",
)

#: Counters the hooks accumulate beside the per-layer calls and times.
COUNTERS = (
    "analysis.evaluate.requests",
    "analysis.prefetch.sets",
    "availability.sample.slots",
    "availability.consumed_slots",
    "engine.slots",
    "select.proactive.switches",
)

Hook = Callable[[tuple, dict, object], None]


def _run_slots(result) -> int:
    """Slots a finished run simulated: its makespan, or the whole cap on failure."""
    return int(result.makespan) if result.success else int(result.max_slots)


class Ledger:
    """Timing shims around the public callables of each ``repro`` layer."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {name: LayerStats() for name in LAYERS}
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        # One frame per active shim: [layer, nanoseconds covered by children].
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        # The current trial's availability realisation: processors and the
        # longest run replayed from it (see _close_trial).
        self._trial_processors = 0
        self._trial_longest = 0

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------
    def _timed(self, function: Callable, layer: str, hook: Optional[Hook]) -> Callable:
        stack = self._stack
        stats = self.layers[layer]
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def timed(*args, **kwargs):
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - frame[1]

        return timed

    def _parent_layer(self) -> Optional[str]:
        """Layer of the shim enclosing the one whose hook is running."""
        return self._stack[-2][0] if len(self._stack) >= 2 else None

    def wrap_method(self, owner: type, name: str, layer: str, hook: Optional[Hook] = None) -> None:
        """Shim ``owner.name`` (a plain method or a classmethod) in place."""
        original = vars(owner)[name]
        if isinstance(original, classmethod):
            shim = classmethod(self._timed(original.__func__, layer, hook))
        else:
            shim = self._timed(original, layer, hook)
        setattr(owner, name, shim)
        self._patches.append((owner, name, original))

    def wrap_function(self, module, name: str, layer: str, hook: Optional[Hook] = None) -> None:
        """Shim a module-level function everywhere a loaded module bound it."""
        original = getattr(module, name)
        shim = self._timed(original, layer, hook)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attribute, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, attribute, shim)
                    self._patches.append((loaded, attribute, original))

    def uninstall(self) -> None:
        """Put every original callable back (in reverse patch order)."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)

    def restored(self) -> bool:
        """True when every patched attribute is its original object again."""
        return all(vars(owner).get(name) is original for owner, name, original in self._patches)

    @property
    def patch_count(self) -> int:
        return len(self._patches)

    # ------------------------------------------------------------------
    # Counting hooks
    # ------------------------------------------------------------------
    def _on_evaluate(self, args, kwargs, result) -> None:
        requests = args[1] if len(args) > 1 else kwargs["requests"]
        self.counters["analysis.evaluate.requests"] += len(requests)

    def _on_prefetch(self, args, kwargs, result) -> None:
        # Only evaluate_batch's prefetches are computation-memo misses; the
        # allocator's and the communication estimate's are counted as time.
        if self._parent_layer() == "analysis.evaluate":
            sets = args[1] if len(args) > 1 else kwargs["sets"]
            self.counters["analysis.prefetch.sets"] += len(sets)

    def _on_state_block(self, args, kwargs, result) -> None:
        self.counters["availability.sample.slots"] += result.size

    def _on_initial_states(self, args, kwargs, result) -> None:
        # The campaign runner samples one realisation per trial and replays
        # it for every heuristic of the trial: a new slot-0 column opens the
        # next trial.
        self._close_trial()
        self._trial_processors = len(result)
        self.counters["availability.sample.slots"] += len(result)

    def _close_trial(self) -> None:
        self.counters["availability.consumed_slots"] += (
            self._trial_processors * self._trial_longest
        )
        self._trial_processors = 0
        self._trial_longest = 0

    def _on_runs(self, results) -> None:
        for result in results:
            slots = _run_slots(result)
            self.counters["engine.slots"] += slots
            self._trial_longest = max(self._trial_longest, slots)

    def _on_solo(self, args, kwargs, result) -> None:
        self._on_runs((result,))

    def _on_onepass(self, args, kwargs, result) -> None:
        self._on_runs(result)

    def _on_proactive_select(self, args, kwargs, result) -> None:
        observation = args[1] if len(args) > 1 else kwargs["observation"]
        if result != observation.current_configuration:
            self.counters["select.proactive.switches"] += 1

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Shim every layer boundary the ledger reports on."""
        from repro.analysis.cache import AnalysisContext
        from repro.analysis.group import GroupAnalysis
        from repro.availability import generators
        from repro.experiments import runner, spec
        from repro.experiments.scenarios import ExperimentScenario
        from repro.experiments.store import ResultStore
        from repro.scheduling.allocation import IncrementalAllocator
        from repro.scheduling.passive import PassiveHeuristic
        from repro.scheduling.proactive import ProactiveHeuristic
        from repro.scheduling.random_heuristic import RandomScheduler
        from repro.simulation.engine import SimulationEngine
        from repro.simulation.multirun import MultiHeuristicDriver

        self.wrap_function(spec, "load_spec", "spec")
        self.wrap_method(spec.CampaignSpec, "cells", "spec")
        self.wrap_method(spec.CampaignSpec, "shard_cells", "spec")
        self.wrap_method(ResultStore, "create", "store.open")
        self.wrap_method(ResultStore, "open", "store.open")
        self.wrap_method(ResultStore, "completed_cells", "store.read")
        self.wrap_method(ResultStore, "results_by_cell", "store.read")
        self.wrap_method(ResultStore, "append", "store.append")
        self.wrap_method(ExperimentScenario, "build_platform", "scenario")
        self.wrap_method(AnalysisContext, "__init__", "analysis.init")
        self.wrap_method(AnalysisContext, "evaluate_batch", "analysis.evaluate", self._on_evaluate)
        self.wrap_method(GroupAnalysis, "prefetch", "analysis.prefetch", self._on_prefetch)
        self.wrap_function(
            generators, "sample_initial_states", "availability", self._on_initial_states
        )
        # Each model's sample_block, one chunk of the trial's realisation.
        self.wrap_function(
            generators, "sample_state_block", "availability", self._on_state_block
        )
        self.wrap_method(SimulationEngine, "run", "engine.solo", self._on_solo)
        self.wrap_method(MultiHeuristicDriver, "run", "engine.onepass", self._on_onepass)
        self.wrap_method(RandomScheduler, "select", "select.random")
        self.wrap_method(PassiveHeuristic, "select", "select.passive")
        self.wrap_method(
            ProactiveHeuristic, "select", "select.proactive", self._on_proactive_select
        )
        self.wrap_method(IncrementalAllocator, "allocate", "allocate")
        self.wrap_function(runner, "run_campaign_spec", "runner")

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Raw per-layer ``[calls, total_ns, self_ns]`` and counters, JSON-ready."""
        self._close_trial()
        return {
            "layers": {
                name: [stats.calls, stats.total_ns, stats.self_ns]
                for name, stats in self.layers.items()
            },
            "counters": dict(self.counters),
        }


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Sum the raw snapshots of several traced invocations."""
    layers = {name: [0, 0, 0] for name in LAYERS}
    counters = dict.fromkeys(COUNTERS, 0)
    for snapshot in snapshots:
        for name, values in snapshot["layers"].items():
            layers[name] = [a + b for a, b in zip(layers[name], values)]
        for name, value in snapshot["counters"].items():
            counters[name] += value
    return {"layers": layers, "counters": counters}


def covered_seconds(snapshot: dict) -> float:
    """Self time summed over every layer: the wall time some shim accounts for."""
    return sum(self_ns for _, _, self_ns in snapshot["layers"].values()) / 1e9


def layer_metrics(snapshot: dict) -> Dict[str, float]:
    """The per-layer metrics (counts, self seconds and ratios) of a snapshot."""
    layers = {name: LayerStats(*values) for name, values in snapshot["layers"].items()}
    counters = snapshot["counters"]

    def seconds(layer: str) -> float:
        return layers[layer].self_ns / 1e9

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    requests = counters["analysis.evaluate.requests"]
    sampled = counters["availability.sample.slots"]
    engine_inclusive = (layers["engine.solo"].total_ns + layers["engine.onepass"].total_ns) / 1e9
    proactive_calls = layers["select.proactive"].calls
    allocate = layers["allocate"]
    return {
        "spec.load.s": seconds("spec"),
        "store.open.s": seconds("store.open"),
        "store.read.s": seconds("store.read"),
        "store.append.calls": layers["store.append"].calls,
        "store.append.s": seconds("store.append"),
        "scenario.build.calls": layers["scenario"].calls,
        "scenario.build.s": seconds("scenario"),
        "analysis.init.calls": layers["analysis.init"].calls,
        "analysis.init.s": seconds("analysis.init"),
        "analysis.evaluate.calls": layers["analysis.evaluate"].calls,
        "analysis.evaluate.requests": requests,
        "analysis.evaluate.s": seconds("analysis.evaluate"),
        "analysis.prefetch.sets": counters["analysis.prefetch.sets"],
        "analysis.prefetch.s": seconds("analysis.prefetch"),
        "analysis.hit_rate": 1.0 - ratio(counters["analysis.prefetch.sets"], requests)
        if requests
        else 0.0,
        "availability.sample.calls": layers["availability"].calls,
        "availability.sample.slots": sampled,
        "availability.sample.s": seconds("availability"),
        "availability.used_ratio": ratio(counters["availability.consumed_slots"], sampled),
        "engine.solo.runs": layers["engine.solo"].calls,
        "engine.solo.s": seconds("engine.solo"),
        "engine.onepass.runs": layers["engine.onepass"].calls,
        "engine.onepass.s": seconds("engine.onepass"),
        "engine.slots": counters["engine.slots"],
        "engine.slots_per_s": ratio(counters["engine.slots"], engine_inclusive),
        "select.random.calls": layers["select.random"].calls,
        "select.random.s": seconds("select.random"),
        "select.passive.calls": layers["select.passive"].calls,
        "select.passive.s": seconds("select.passive"),
        "select.proactive.calls": proactive_calls,
        "select.proactive.s": seconds("select.proactive"),
        "select.proactive.switch_rate": ratio(
            counters["select.proactive.switches"], proactive_calls
        ),
        "allocate.calls": allocate.calls,
        "allocate.s": seconds("allocate"),
        "allocate.us_per_call": ratio(allocate.total_ns / 1e3, allocate.calls),
        "runner.s": seconds("runner"),
    }

