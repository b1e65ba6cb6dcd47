"""Tests for the persistent campaign result store."""

import dataclasses
import json
import os
import re
import sqlite3
from pathlib import Path

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.runner import InstanceResult
from repro.experiments.spec import CampaignSpec
from repro.experiments.report import format_store_status
from repro.experiments.store import ResultStore, merge_stores, store_status
from repro.utils.serialization import canonical_json

CAMPAIGNS_DOC = Path(__file__).resolve().parents[2] / "docs" / "campaigns.md"


def unit_spec(**overrides):
    defaults = dict(
        name="store-unit",
        m_values=(4,),
        ncom_values=(5,),
        wmin_values=(1,),
        num_processors_values=(8,),
        heuristics=("IE", "RANDOM"),
        scenarios_per_cell=1,
        trials_per_scenario=2,
        iterations=3,
        makespan_cap=20_000,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def fake_result(cell, makespan=100):
    params = cell.scenario.params
    return InstanceResult(
        heuristic=cell.heuristic,
        m=params.m,
        ncom=params.ncom,
        wmin=params.wmin,
        scenario_index=cell.scenario.scenario_index,
        trial_index=cell.trial,
        success=True,
        makespan=makespan,
        completed_iterations=3,
        total_restarts=1,
        total_configuration_changes=2,
        wall_time_seconds=0.123,
        num_processors=params.num_processors,
    )


class TestRoundTrip:
    def test_result_round_trip_through_store(self, tmp_path):
        spec = unit_spec()
        cells = spec.cells()
        store = ResultStore.create(tmp_path / "c", spec)
        originals = []
        for cell in cells:
            result = fake_result(cell, makespan=100 + cell.index)
            originals.append(result)
            store.append(cell, result)
        store.close()

        reopened = ResultStore.open(tmp_path / "c")
        assert reopened.spec.spec_hash() == spec.spec_hash()
        assert reopened.results() == originals
        assert reopened.completed_cells() == {cell.index for cell in cells}

    def test_as_dict_from_dict_identity(self):
        cell = unit_spec().cells()[0]
        result = fake_result(cell)
        assert InstanceResult.from_dict(result.as_dict()) == result

    def test_append_is_idempotent(self, tmp_path):
        spec = unit_spec()
        cell = spec.cells()[0]
        store = ResultStore.create(tmp_path / "c", spec)
        result = fake_result(cell)
        store.append(cell, result)
        # Same result, different wall time: accepted silently (volatile field).
        store.append(cell, fake_result(cell))
        assert len(store) == 1

    def test_conflicting_append_rejected(self, tmp_path):
        spec = unit_spec()
        cell = spec.cells()[0]
        store = ResultStore.create(tmp_path / "c", spec)
        store.append(cell, fake_result(cell, makespan=100))
        with pytest.raises(ExperimentError):
            store.append(cell, fake_result(cell, makespan=999))

    def test_create_rejects_mismatched_spec(self, tmp_path):
        store = ResultStore.create(tmp_path / "c", unit_spec())
        store.close()
        with pytest.raises(ExperimentError):
            ResultStore.create(tmp_path / "c", unit_spec(trials_per_scenario=9))


    def test_create_reopens_matching_store(self, tmp_path):
        spec = unit_spec()
        first = ResultStore.create(tmp_path / "c", spec)
        first.append(spec.cells()[0], fake_result(spec.cells()[0]))
        first.close()
        again = ResultStore.create(tmp_path / "c", spec)
        assert len(again) == 1


class Killed(Exception):
    """Stands in for a kill arriving in the middle of a run."""


class TestInProcessKill:
    def test_kill_loses_only_the_trial_in_flight(self, tmp_path, monkeypatch):
        """Every finished trial is in the store when a kill hits the next.

        Two heuristics × four trials run in process, one solo engine run per
        cell (Y-IE has no passive contract, so no one-pass driver); the kill
        lands in the fifth run, the first of trial 2.
        """
        from repro.experiments.runner import run_campaign_spec
        from repro.simulation.engine import SimulationEngine

        spec = unit_spec(trials_per_scenario=4, heuristics=("IE", "Y-IE"))
        run = SimulationEngine.run
        calls = []

        def killed_in_trial_two(engine):
            calls.append(engine)
            if len(calls) == 5:
                raise Killed()
            return run(engine)

        monkeypatch.setattr(SimulationEngine, "run", killed_in_trial_two)
        store = ResultStore.create(tmp_path / "c", spec)
        with pytest.raises(Killed):
            run_campaign_spec(spec, store=store)
        store.close()
        monkeypatch.setattr(SimulationEngine, "run", run)

        store = ResultStore.open(tmp_path / "c")
        assert sorted(result.trial_index for result in store.results()) == [0, 0, 1, 1]
        # Resume runs exactly the lost trials' cells.
        assert len(run_campaign_spec(spec, store=store)) == spec.num_cells()
        assert len(store.completed_cells()) == spec.num_cells()
        store.close()


class TestJsonlRecovery:
    def test_truncated_trailing_line_is_dropped(self, tmp_path):
        spec = unit_spec()
        cells = spec.cells()
        store = ResultStore.create(tmp_path / "c", spec)
        store.append(cells[0], fake_result(cells[0]))
        store.append(cells[1], fake_result(cells[1]))
        store.close()
        path = tmp_path / "c" / "results.jsonl"
        # Simulate a kill mid-write: chop the final record in half.
        text = path.read_text()
        path.write_text(text[: len(text) - 25])
        reopened = ResultStore.open(tmp_path / "c")
        assert reopened.completed_cells() == {cells[0].index}

    def test_append_after_truncated_line_keeps_store_valid(self, tmp_path):
        """Resume-after-kill must truncate the fragment, not glue onto it."""
        spec = unit_spec()
        cells = spec.cells()
        store = ResultStore.create(tmp_path / "c", spec)
        store.append(cells[0], fake_result(cells[0]))
        store.append(cells[1], fake_result(cells[1]))
        store.close()
        path = tmp_path / "c" / "results.jsonl"
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # kill mid-write of record 2

        resumed = ResultStore.open(tmp_path / "c")
        assert resumed.completed_cells() == {cells[0].index}
        resumed.append(cells[1], fake_result(cells[1]))  # the re-run cell
        resumed.close()

        # The store must be cleanly re-openable with both records intact.
        final = ResultStore.open(tmp_path / "c")
        assert final.completed_cells() == {cells[0].index, cells[1].index}

    def test_append_after_record_missing_its_newline(self, tmp_path):
        """A whole last record that lost its newline gets it back on open, so
        the next append starts a fresh line instead of gluing onto it."""
        spec = unit_spec()
        cells = spec.cells()
        store = ResultStore.create(tmp_path / "c", spec)
        store.append(cells[0], fake_result(cells[0]))
        store.append(cells[1], fake_result(cells[1]))
        store.close()
        path = tmp_path / "c" / "results.jsonl"
        written = path.read_bytes()
        path.write_bytes(written[:-1])

        resumed = ResultStore.open(tmp_path / "c")
        assert resumed.completed_cells() == {cells[0].index, cells[1].index}
        resumed.append(cells[2], fake_result(cells[2]))
        resumed.close()

        final = ResultStore.open(tmp_path / "c")
        assert final.completed_cells() == {cell.index for cell in cells[:3]}
        assert path.read_bytes().startswith(written)
        final.close()

    def test_open_leaves_a_whole_file_untouched(self, tmp_path):
        spec = unit_spec()
        cells = spec.cells()
        store = ResultStore.create(tmp_path / "c", spec)
        store.append(cells[0], fake_result(cells[0]))
        store.append(cells[1], fake_result(cells[1]))
        store.close()
        path = tmp_path / "c" / "results.jsonl"
        written = path.read_bytes()
        before = path.stat().st_mtime_ns

        reopened = ResultStore.open(tmp_path / "c")
        assert reopened.completed_cells() == {cells[0].index, cells[1].index}
        reopened.close()
        assert path.read_bytes() == written
        assert path.stat().st_mtime_ns == before

    @pytest.mark.parametrize("cut", [25, 1], ids=["torn-line", "missing-newline"])
    def test_status_of_a_damaged_tail_leaves_the_file_untouched(self, tmp_path, cut):
        """Readers never write: the campaign appending to a store may still
        be finishing the line a reader sees as torn."""
        spec = unit_spec()
        cells = spec.cells()
        store = ResultStore.create(tmp_path / "c", spec)
        store.append(cells[0], fake_result(cells[0]))
        store.append(cells[1], fake_result(cells[1]))
        store.close()
        path = tmp_path / "c" / "results.jsonl"
        path.write_bytes(path.read_bytes()[:-cut])
        # An old mtime, so that any write shows even on coarse clocks.
        os.utime(path, ns=(10**18, 10**18))
        written = path.read_bytes()

        status = store_status(ResultStore.open(tmp_path / "c"))
        assert status.completed == (1 if cut > 1 else 2)
        assert path.read_bytes() == written
        assert path.stat().st_mtime_ns == 10**18

    def test_corrupt_middle_line_raises(self, tmp_path):
        spec = unit_spec()
        cells = spec.cells()
        store = ResultStore.create(tmp_path / "c", spec)
        store.append(cells[0], fake_result(cells[0]))
        store.append(cells[1], fake_result(cells[1]))
        store.close()
        path = tmp_path / "c" / "results.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ExperimentError):
            ResultStore.open(tmp_path / "c")

    @pytest.mark.parametrize(
        "line", ['{"foo": 1}', '{"cell": "3"}', '{"cell": true}', "[1, 2]", "7"]
    )
    def test_line_without_integer_cell_raises(self, tmp_path, line):
        spec = unit_spec()
        cell = spec.cells()[0]
        store = ResultStore.create(tmp_path / "c", spec)
        store.append(cell, fake_result(cell))
        store.close()
        path = tmp_path / "c" / "results.jsonl"
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ExperimentError, match=r"corrupt record at .*results\.jsonl:2"):
            ResultStore.open(tmp_path / "c")


def sqlite_manifest_store(directory, spec):
    """A store whose manifest names the removed sqlite backend."""
    ResultStore.create(directory, spec).close()
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["backend"] = "sqlite"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return directory


def removed_backend_error(directory):
    """The refusal names the store and points at the migration recipe."""
    return pytest.raises(
        ExperimentError,
        match=rf"store {re.escape(str(directory))} uses the 'sqlite' backend.*"
        r"Migrating sqlite stores.*docs/campaigns\.md",
    )


class TestRemovedSqliteBackend:
    """A store written by the removed sqlite backend is refused, never resumed
    (a resume would start an empty results.jsonl and re-run every cell)."""

    def test_open_rejects_sqlite_manifest(self, tmp_path):
        directory = sqlite_manifest_store(tmp_path / "old", unit_spec())
        with removed_backend_error(directory):
            ResultStore.open(directory)
        assert not (directory / "results.jsonl").exists()

    def test_create_rejects_sqlite_manifest(self, tmp_path):
        spec = unit_spec()
        directory = sqlite_manifest_store(tmp_path / "old", spec)
        with removed_backend_error(directory):
            ResultStore.create(directory, spec)
        assert not (directory / "results.jsonl").exists()

    @pytest.mark.parametrize("role", ["source", "destination"])
    def test_merge_rejects_sqlite_store(self, tmp_path, role):
        spec = unit_spec()
        old = sqlite_manifest_store(tmp_path / "old", spec)
        shard = ResultStore.create(tmp_path / "shard", spec)
        shard.append(spec.cells()[0], fake_result(spec.cells()[0]))
        shard.close()
        if role == "source":
            sources, destination = [tmp_path / "shard", old], tmp_path / "merged"
        else:
            sources, destination = [tmp_path / "shard"], old
        with removed_backend_error(old):
            merge_stores(sources, destination)
        assert not (old / "results.jsonl").exists()
        assert not (tmp_path / "merged").exists()

    def test_manifest_without_backend_key_opens_as_jsonl(self, tmp_path):
        spec = unit_spec()
        cell = spec.cells()[0]
        store = ResultStore.create(tmp_path / "c", spec)
        store.append(cell, fake_result(cell))
        store.close()
        manifest_path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["backend"]
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        reopened = ResultStore.open(tmp_path / "c")
        assert reopened.results() == [fake_result(cell)]
        reopened.close()


def old_sqlite_store(directory, spec, cells):
    """A store as the removed sqlite backend wrote it: the manifest names
    sqlite and ``results.sqlite`` holds one canonical JSON payload per cell."""
    sqlite_manifest_store(directory, spec)
    connection = sqlite3.connect(directory / "results.sqlite")
    with connection:
        connection.execute(
            "CREATE TABLE IF NOT EXISTS results"
            " (cell INTEGER PRIMARY KEY, payload TEXT NOT NULL)"
        )
        # Rows go in as cells finished, which need not be cell order.
        for cell in reversed(cells):
            record = dict(fake_result(cell, makespan=100 + cell.index).as_dict(), cell=cell.index)
            connection.execute(
                "INSERT INTO results (cell, payload) VALUES (?, ?)",
                (cell.index, canonical_json(record)),
            )
    connection.close()
    return directory


def run_migration_recipe(directory):
    """Execute the recipe of docs/campaigns.md as printed, on *directory*."""
    section = CAMPAIGNS_DOC.read_text().split("## Migrating sqlite stores", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    placeholder = 'Path("runs/old")'
    assert placeholder in code, "the recipe no longer names its store directory"
    exec(code.replace(placeholder, f"Path({str(directory)!r})"), {})


class TestSqliteMigration:
    """The migration recipe in docs/campaigns.md turns an old sqlite store
    into one this release opens and resumes."""

    def test_recipe_gives_a_byte_identical_jsonl_store(self, tmp_path):
        spec = unit_spec()
        cells = spec.cells()
        native = ResultStore.create(tmp_path / "native", spec)
        for cell in cells:
            native.append(cell, fake_result(cell, makespan=100 + cell.index))
        native.close()
        old = old_sqlite_store(tmp_path / "old", spec, cells)

        run_migration_recipe(old)

        for name in ("results.jsonl", "manifest.json"):
            assert (old / name).read_bytes() == (tmp_path / "native" / name).read_bytes()

    def test_migrated_store_resumes(self, tmp_path):
        spec = unit_spec()
        cells = spec.cells()
        old = old_sqlite_store(tmp_path / "old", spec, cells[:3])

        run_migration_recipe(old)

        resumed = ResultStore.create(old, spec)
        assert resumed.completed_cells() == {cell.index for cell in cells[:3]}
        resumed.append(cells[3], fake_result(cells[3], makespan=100 + cells[3].index))
        resumed.close()
        final = ResultStore.open(old)
        assert [result.makespan for result in final.results()] == [
            100 + cell.index for cell in cells
        ]
        assert store_status(final).remaining == 0
        final.close()

    def test_migrated_empty_store_opens(self, tmp_path):
        old = old_sqlite_store(tmp_path / "old", unit_spec(), [])

        run_migration_recipe(old)

        assert (old / "results.jsonl").read_bytes() == b""
        reopened = ResultStore.open(old)
        assert len(reopened) == 0
        reopened.close()


class TestMerge:
    def _sharded_stores(self, tmp_path, spec):
        stores = []
        for shard_index in (1, 2):
            store = ResultStore.create(tmp_path / f"s{shard_index}", spec)
            for cell in spec.shard_cells(shard_index, 2):
                store.append(cell, fake_result(cell, makespan=100 + cell.index))
            store.close()
            stores.append(tmp_path / f"s{shard_index}")
        return stores

    def test_merge_reconstructs_full_campaign(self, tmp_path):
        spec = unit_spec()
        sources = self._sharded_stores(tmp_path, spec)
        merged = merge_stores(sources, tmp_path / "merged")
        assert merged.completed_cells() == {cell.index for cell in spec.cells()}
        makespans = [result.makespan for result in merged.results()]
        assert makespans == [100 + cell.index for cell in spec.cells()]
        merged.close()

    def test_merge_rejects_different_specs(self, tmp_path):
        a = ResultStore.create(tmp_path / "a", unit_spec())
        b = ResultStore.create(tmp_path / "b", unit_spec(trials_per_scenario=9))
        a.close()
        b.close()
        with pytest.raises(ExperimentError):
            merge_stores([tmp_path / "a", tmp_path / "b"], tmp_path / "m")

    def test_merge_rejects_conflicting_records(self, tmp_path):
        spec = unit_spec()
        cell = spec.cells()[0]
        a = ResultStore.create(tmp_path / "a", spec)
        a.append(cell, fake_result(cell, makespan=1))
        a.close()
        b = ResultStore.create(tmp_path / "b", spec)
        b.append(cell, fake_result(cell, makespan=2))
        b.close()
        with pytest.raises(ExperimentError):
            merge_stores([tmp_path / "a", tmp_path / "b"], tmp_path / "m")

    def test_merge_overlap_with_identical_records_ok(self, tmp_path):
        spec = unit_spec()
        cell = spec.cells()[0]
        for name in ("a", "b"):
            store = ResultStore.create(tmp_path / name, spec)
            store.append(cell, fake_result(cell))
            store.close()
        merged = merge_stores([tmp_path / "a", tmp_path / "b"], tmp_path / "m")
        assert len(merged) == 1
        merged.close()

    def test_jsonl_merge_is_byte_identical_to_sequential(self, tmp_path):
        """Merged shards reproduce an unsharded store's bytes exactly.

        Wall times are deterministic here (fake results), so the comparison
        needs no normalisation: canonical JSONL in canonical cell order.
        """
        spec = unit_spec()
        full = ResultStore.create(tmp_path / "full", spec)
        for cell in spec.cells():
            full.append(cell, fake_result(cell, makespan=100 + cell.index))
        full.close()
        sources = self._sharded_stores(tmp_path, spec)
        merge_stores(sources, tmp_path / "merged").close()
        assert (tmp_path / "full" / "results.jsonl").read_bytes() == (
            tmp_path / "merged" / "results.jsonl"
        ).read_bytes()


class TestStatus:
    def test_status_counts(self, tmp_path):
        spec = unit_spec()
        cells = spec.cells()
        store = ResultStore.create(tmp_path / "c", spec)
        for cell in cells[:3]:
            store.append(cell, fake_result(cell))
        status = store_status(store)
        assert status.total_cells == len(cells) == 4
        assert status.completed == 3
        assert status.remaining == 1
        done = dict((h, d) for h, d, _ in status.by_heuristic)
        assert done["IE"] == 2
        assert done["RANDOM"] == 1
        store.close()

    def test_manifest_is_json(self, tmp_path):
        ResultStore.create(tmp_path / "c", unit_spec()).close()
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest["backend"] == "jsonl"
        assert manifest["spec"]["name"] == "store-unit"

    def test_manifest_keeps_the_format_earlier_releases_read(self, tmp_path):
        spec = unit_spec()
        ResultStore.create(tmp_path / "c", spec).close()
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest == {
            "format_version": 1,
            "backend": "jsonl",
            "spec": spec.as_dict(),
            "spec_hash": spec.spec_hash(),
        }

    def test_format_store_status_names_the_store(self, tmp_path):
        spec = unit_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        store.append(spec.cells()[0], fake_result(spec.cells()[0]))
        text = format_store_status(store_status(store))
        store.close()
        first = text.splitlines()[0]
        assert first == (
            f"Campaign 'store-unit' (spec {spec.spec_hash()[:12]}, "
            f"store at {tmp_path / 'c'})"
        )
        assert "1/4 complete (25.0%), 3 remaining" in text


def fake_metrics(stride=32, end_slot=100, scheduler="IE"):
    count = (end_slot - 1) // stride + 1
    return {
        "stride": stride,
        "end_slot": end_slot,
        "scheduler": scheduler,
        "series": {
            "pool_up": [float(i % 8) for i in range(count)],
            "work_completed": [round(1.5 * i, 3) for i in range(count)],
        },
    }


class TestMetricsPersistence:
    def test_series_round_trip(self, tmp_path):
        spec = unit_spec()
        cells = spec.cells()
        store = ResultStore.create(tmp_path / "c", spec)
        originals = []
        for cell in cells:
            result = dataclasses.replace(
                fake_result(cell, makespan=100 + cell.index),
                metrics=fake_metrics(end_slot=100 + cell.index, scheduler=cell.heuristic),
            )
            originals.append(result)
            store.append(cell, result)
        store.close()
        reopened = ResultStore.open(tmp_path / "c")
        assert reopened.results() == originals
        for stored, original in zip(reopened.results(), originals):
            assert stored.metrics == original.metrics

    def test_metrics_key_omitted_when_absent(self):
        """Records written before the metrics layer must stay byte-identical,
        so as_dict omits (not nulls) a missing payload."""
        cell = unit_spec().cells()[0]
        result = fake_result(cell)
        assert "metrics" not in result.as_dict()
        result = dataclasses.replace(result, metrics=fake_metrics())
        assert result.as_dict()["metrics"] == fake_metrics()
        assert InstanceResult.from_dict(result.as_dict()) == result

    def test_metrics_are_volatile_for_idempotent_appends(self, tmp_path):
        """Re-running a cell with the collector toggled differently must not
        conflict: series (like wall time) are not part of a cell's identity."""
        spec = unit_spec()
        cell = spec.cells()[0]
        store = ResultStore.create(tmp_path / "c", spec)
        bare = fake_result(cell)
        store.append(cell, bare)
        with_series = dataclasses.replace(fake_result(cell), metrics=fake_metrics())
        store.append(cell, with_series)  # accepted silently
        assert len(store) == 1
        # A genuinely different scalar result still conflicts.
        with pytest.raises(ExperimentError):
            store.append(cell, fake_result(cell, makespan=999))
        store.close()

    def test_truncated_trailing_metrics_record_recovers(self, tmp_path):
        """Series make records long; a mid-write kill still only drops the
        final fragment on resume."""
        spec = unit_spec()
        cells = spec.cells()
        store = ResultStore.create(tmp_path / "c", spec)
        for cell in cells[:2]:
            result = dataclasses.replace(
                fake_result(cell), metrics=fake_metrics(end_slot=2000)
            )
            store.append(cell, result)
        store.close()
        path = tmp_path / "c" / "results.jsonl"
        text = path.read_text()
        path.write_text(text[: len(text) - 40])  # chop inside the series
        resumed = ResultStore.open(tmp_path / "c")
        assert resumed.completed_cells() == {cells[0].index}
        repaired = dataclasses.replace(
            fake_result(cells[1]), metrics=fake_metrics(end_slot=2000)
        )
        resumed.append(cells[1], repaired)
        resumed.close()
        final = ResultStore.open(tmp_path / "c")
        assert final.completed_cells() == {cells[0].index, cells[1].index}
        assert final.results()[1].metrics == repaired.metrics
