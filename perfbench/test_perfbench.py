"""Tests of the benchmark itself: names, shims that leave no trace, digests.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import run  # noqa: E402
from ledger import Ledger, layer_metrics, merge_snapshots  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: A small campaign reaching every layer: RANDOM and two passive heuristics
#: share the one-pass driver, the proactive one runs solo.
TINY_SPEC = {
    "campaign": {
        "name": "perfbench-test",
        "m": [5],
        "heuristics": ["RANDOM", "IE", "IY", "Y-IE"],
        "scenarios_per_cell": 1,
        "trials": 2,
        "iterations": 3,
        "makespan_cap": 3000,
    },
    "grid": {"ncom": [10], "wmin": [2], "num_processors": [20]},
}


def _campaign(tmp_path: Path, store: str) -> Path:
    import repro.cli

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(TINY_SPEC))
    directory = tmp_path / store
    argv = ["campaign", "--spec", str(spec), "--store", str(directory), "--report", "none"]
    assert repro.cli.main(argv) == 0
    return directory


def _bindings():
    """Every attribute the ledger patches, read fresh from its owner."""
    ledger = Ledger()
    ledger.install()
    patched = [(owner, name) for owner, name, _ in ledger._patches]
    ledger.uninstall()
    return {(id(owner), name): vars(owner)[name] for owner, name in patched}


def test_names_match_the_allowed_pattern():
    names = [item["name"] for item in DECLARED["workloads"]]
    names += [item["name"] for item in DECLARED["end_to_end"]]
    names += [item["name"] for item in DECLARED["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [item["name"] for item in DECLARED["workloads"]] == list(WORKLOADS)


def test_ledger_metrics_are_declared():
    declared = {item["name"] for item in DECLARED["per_layer"]}
    produced = set(layer_metrics(merge_snapshots([])))
    assert produced <= declared


def test_traced_run_reproduces_untraced_digests_and_restores_every_callable(tmp_path):
    untraced = run.store_digests(_campaign(tmp_path, "untraced"))
    before = _bindings()
    ledger = Ledger()
    ledger.install()
    try:
        traced_store = _campaign(tmp_path, "traced")
    finally:
        ledger.uninstall()
    assert ledger.restored()
    assert _bindings() == before
    traced = run.store_digests(traced_store)
    assert traced == untraced
    assert len(traced) == 8
    metrics = layer_metrics(ledger.snapshot())
    assert metrics["engine.onepass.runs"] == 2
    assert metrics["engine.solo.runs"] == 2
    assert metrics["select.proactive.calls"] > 0
    assert metrics["store.append.calls"] == 8
    assert 0.0 < metrics["availability.used_ratio"] <= 1.0


def test_committed_digests_cover_every_cell():
    committed = json.loads(run.DIGESTS_PATH.read_text())
    assert committed["seed"] == DEFAULT_SEED
    for name, workload in WORKLOADS.items():
        assert len(committed["workloads"][name]) == workload.num_cells()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_spec_cell_count_matches_the_workload(tmp_path, name):
    from repro.experiments.spec import load_spec

    workload = WORKLOADS[name]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(workload.spec(DEFAULT_SEED)))
    assert load_spec(spec).num_cells() == workload.num_cells()
