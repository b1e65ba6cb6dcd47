"""End-to-end campaign subsystem tests: resume, sharding, CLI, substrates.

These are the acceptance properties of the campaign subsystem:

* a campaign killed mid-run and resumed produces a result store equivalent
  (ignoring wall-clock measurements) to the same campaign run uninterrupted;
* ``--shard 1/2`` + ``--shard 2/2`` + merge reproduces the unsharded store;
* the whole path works through the CLI from a spec file.
"""

import json

import pytest

from repro.experiments.runner import run_campaign_spec
from repro.experiments.spec import CampaignSpec, builtin_spec
from repro.experiments.store import ResultStore, merge_stores

pytestmark = pytest.mark.slow


def smoke_spec(**overrides):
    spec = builtin_spec("smoke")
    if overrides:
        from dataclasses import replace

        spec = replace(spec, **overrides)
    return spec


def normalized_records(store_dir):
    """Store records with volatile wall-time zeroed, in file order."""
    lines = (store_dir / "results.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for record in records:
        record["wall_time_seconds"] = 0.0
    return records


class TestResume:
    def test_interrupted_resume_matches_uninterrupted(self, tmp_path):
        spec = smoke_spec()
        full = ResultStore.create(tmp_path / "full", spec)
        run_campaign_spec(spec, store=full)
        full.close()

        interrupted = ResultStore.create(tmp_path / "interrupted", spec)
        run_campaign_spec(spec, store=interrupted, max_cells=2)
        interrupted.close()
        assert len(ResultStore.open(tmp_path / "interrupted")) == 2

        resumed = ResultStore.open(tmp_path / "interrupted")
        run_campaign_spec(spec, store=resumed)
        resumed.close()

        assert normalized_records(tmp_path / "full") == normalized_records(
            tmp_path / "interrupted"
        )

    def test_resume_skips_completed_cells(self, tmp_path):
        spec = smoke_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        run_campaign_spec(spec, store=store)
        events = []
        run_campaign_spec(spec, store=store, cell_progress=events.append)
        store.close()
        assert len(events) == 1 and events[0].skipped
        assert events[0].done == events[0].total == spec.num_cells()

    def test_progress_reports_accurate_totals_after_resume(self, tmp_path):
        spec = smoke_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        run_campaign_spec(spec, store=store, max_cells=1)
        events = []
        run_campaign_spec(spec, store=store, cell_progress=events.append)
        store.close()
        assert events[0].skipped and events[0].done == 1
        fresh = [event for event in events if not event.skipped]
        assert [event.done for event in fresh] == list(range(2, spec.num_cells() + 1))
        assert all(event.total == spec.num_cells() for event in fresh)
        assert fresh[0].scenario and fresh[0].heuristic


class TestSharding:
    def test_shards_plus_merge_reproduce_unsharded_store(self, tmp_path):
        spec = smoke_spec()
        full = ResultStore.create(tmp_path / "full", spec)
        run_campaign_spec(spec, store=full)
        full.close()

        for shard_index in (1, 2):
            store = ResultStore.create(tmp_path / f"shard{shard_index}", spec)
            run_campaign_spec(spec, store=store, shard=(shard_index, 2))
            store.close()
        merged = merge_stores(
            [tmp_path / "shard1", tmp_path / "shard2"], tmp_path / "merged"
        )
        merged.close()

        assert normalized_records(tmp_path / "full") == normalized_records(
            tmp_path / "merged"
        )

    def test_parallel_matches_serial(self, tmp_path):
        spec = smoke_spec()
        serial = run_campaign_spec(spec)
        parallel = run_campaign_spec(spec, n_jobs=2)
        assert [r.makespan for r in serial] == [r.makespan for r in parallel]


#: Per-cell ``(heuristic, ncom, wmin, scenario, trial, makespan)`` of a
#: campaign named "legacy", recorded from the retired per-``m`` campaign loop
#: for both estimators.  The spec path must keep reproducing them.
LEGACY_MAKESPANS = {
    "paper": [
        ("IE", 5, 1, 0, 0, 21),
        ("RANDOM", 5, 1, 0, 0, 45),
        ("Y-IE", 5, 1, 0, 0, 21),
        ("E-IAY", 5, 1, 0, 0, 21),
        ("IE", 5, 1, 0, 1, 65),
        ("RANDOM", 5, 1, 0, 1, 65),
        ("Y-IE", 5, 1, 0, 1, 33),
        ("E-IAY", 5, 1, 0, 1, 37),
        ("IE", 5, 2, 0, 0, 110),
        ("RANDOM", 5, 2, 0, 0, 376),
        ("Y-IE", 5, 2, 0, 0, 104),
        ("E-IAY", 5, 2, 0, 0, 122),
        ("IE", 5, 2, 0, 1, 309),
        ("RANDOM", 5, 2, 0, 1, 716),
        ("Y-IE", 5, 2, 0, 1, 184),
        ("E-IAY", 5, 2, 0, 1, 321),
    ],
    "renewal": [
        ("IE", 5, 1, 0, 0, 21),
        ("RANDOM", 5, 1, 0, 0, 45),
        ("Y-IE", 5, 1, 0, 0, 21),
        ("E-IAY", 5, 1, 0, 0, 21),
        ("IE", 5, 1, 0, 1, 65),
        ("RANDOM", 5, 1, 0, 1, 65),
        ("Y-IE", 5, 1, 0, 1, 35),
        ("E-IAY", 5, 1, 0, 1, 37),
        ("IE", 5, 2, 0, 0, 96),
        ("RANDOM", 5, 2, 0, 0, 376),
        ("Y-IE", 5, 2, 0, 0, 43),
        ("E-IAY", 5, 2, 0, 0, 122),
        ("IE", 5, 2, 0, 1, 194),
        ("RANDOM", 5, 2, 0, 1, 716),
        ("Y-IE", 5, 2, 0, 1, 193),
        ("E-IAY", 5, 2, 0, 1, 321),
    ],
}


class TestSpecMatchesLegacyCampaign:
    @pytest.mark.parametrize("estimator", sorted(LEGACY_MAKESPANS))
    def test_spec_reproduces_recorded_legacy_makespans(self, estimator):
        spec = CampaignSpec(
            name="legacy",
            m_values=(4,),
            ncom_values=(5,),
            wmin_values=(1, 2),
            num_processors_values=(8,),
            heuristics=("IE", "RANDOM", "Y-IE", "E-IAY"),
            scenarios_per_cell=1,
            trials_per_scenario=2,
            iterations=2,
            makespan_cap=20_000,
            estimator=estimator,
        )
        results = run_campaign_spec(spec)
        assert all(result.success for result in results)
        assert [
            (r.heuristic, r.ncom, r.wmin, r.scenario_index, r.trial_index, r.makespan)
            for r in results
        ] == LEGACY_MAKESPANS[estimator]


class TestCliEndToEnd:
    def test_spec_run_interrupt_resume_merge_tables(self, tmp_path, capsys):
        """The nightly smoke, in-process: spec file -> run -> interrupt-resume
        -> shard -> merge -> tables."""
        from repro.cli import main

        spec_payload = {
            "campaign": {
                "name": "cli-e2e",
                "m": [4],
                "heuristics": ["IE", "RANDOM"],
                "scenarios_per_cell": 1,
                "trials": 2,
                "iterations": 3,
                "makespan_cap": 30_000,
            },
            "grid": {"ncom": [5], "wmin": [1], "num_processors": [8]},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_payload))

        base = ["campaign", "--spec", str(spec_path)]
        # Interrupted run, then resume.
        assert main(base + ["--store", str(tmp_path / "s"), "--max-cells", "2"]) == 0
        assert main(base + ["--store", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "Campaign 'cli-e2e'" in out and "RANDOM" in out
        # Status.
        assert main(base + ["--store", str(tmp_path / "s"), "--status"]) == 0
        assert "100.0%" in capsys.readouterr().out
        # Shards + merge must reproduce the unsharded store.
        assert main(base + ["--store", str(tmp_path / "a"), "--shard", "1/2",
                            "--report", "none"]) == 0
        assert main(base + ["--store", str(tmp_path / "b"), "--shard", "2/2",
                            "--report", "none"]) == 0
        assert main(["merge", str(tmp_path / "a"), str(tmp_path / "b"),
                     "--output", str(tmp_path / "merged")]) == 0
        assert "Heuristic" in capsys.readouterr().out
        assert normalized_records(tmp_path / "s") == normalized_records(
            tmp_path / "merged"
        )


class TestAvailabilitySubstrates:
    @pytest.mark.parametrize("kind", ["semi-markov", "diurnal"])
    def test_substrate_campaigns_run_and_are_deterministic(self, kind):
        spec = smoke_spec(availability={"kind": kind}, name=f"sub-{kind}")
        first = run_campaign_spec(spec)
        second = run_campaign_spec(spec)
        assert [r.makespan for r in first] == [r.makespan for r in second]
        assert all(r.completed_iterations > 0 or not r.success for r in first)

    def test_trace_substrate(self, tmp_path):
        rows = ["u" * 400 for _ in range(8)]
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps({"type": "trace", "rows": rows}))
        spec = smoke_spec(
            availability={"kind": "trace", "path": str(trace_path)}, name="sub-trace"
        )
        results = run_campaign_spec(spec)
        assert all(r.success for r in results)
