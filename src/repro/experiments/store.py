"""Persistent campaign result stores.

A store is a directory holding one record per completed campaign *cell*
(``(scenario, trial, heuristic)`` triple, identified by its index in the
spec's canonical enumeration plus the deterministic instance key).  Records
are appended durably as cells finish, so

* a killed campaign resumes exactly where it stopped (``run_campaign_spec``
  skips cells already present), and
* independent shards can be merged (:func:`merge_stores`) into one store
  that feeds the existing metrics/tables/figures pipeline.

Records live in ``results.jsonl``, one canonical JSON object per line.
Appends are flushed per cell; a trailing half-written line (the signature
of a kill mid-write) is ignored on open and truncated away by the next
append.  Opening a store never writes to it, so a reader may watch a store
that a campaign is still appending to.

Every store carries a ``manifest.json`` with the full spec snapshot and its
content hash; resuming or merging with a different spec is refused, which is
what makes "same campaign" checkable across machines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple, Union

from repro.exceptions import ExperimentError
from repro.experiments.runner import InstanceResult
from repro.experiments.spec import CampaignCell, CampaignSpec
from repro.utils.serialization import jsonl_line

__all__ = ["ResultStore", "StoreStatus", "merge_stores", "store_status"]

STORE_FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
#: The one record format; the manifest still names it so that stores stay
#: readable by releases that also knew a second one.
STORE_BACKEND = "jsonl"

#: Record fields that are measurements of the run, not of the result; they
#: are ignored when checking records for equivalence (resume / merge).
VOLATILE_FIELDS = ("wall_time_seconds", "metrics")


def _record_payload(cell: CampaignCell, result: InstanceResult) -> dict:
    payload = result.as_dict()
    payload["cell"] = cell.index
    return payload


def _result_from_record(record: dict) -> InstanceResult:
    payload = {key: value for key, value in record.items() if key != "cell"}
    return InstanceResult.from_dict(payload)


def _stable_part(record: dict) -> dict:
    return {key: value for key, value in record.items() if key not in VOLATILE_FIELDS}


def _is_record(record: object) -> bool:
    """Whether a decoded line or payload has the shape of a cell record."""
    return isinstance(record, dict) and type(record.get("cell")) is int


class ResultStore:
    """One campaign's persistent cell records (see module docstring)."""

    def __init__(self, directory: Union[str, Path], spec: CampaignSpec):
        self.directory = Path(directory)
        self.spec = spec
        self._records: Dict[int, dict] = {}
        self._jsonl_handle = None
        # Repair of a torn or unterminated last line, noted by _load and
        # applied by the first append: readers never write.
        self._torn_bytes = 0
        self._needs_newline = False

    # ------------------------------------------------------------------
    # Creation / opening
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, directory: Union[str, Path], spec: CampaignSpec) -> "ResultStore":
        """Create a store for *spec* (or re-open a matching existing one)."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if manifest_path.exists():
            store = cls.open(directory)
            if store.spec.spec_hash() != spec.spec_hash():
                raise ExperimentError(
                    f"store {directory} belongs to a different campaign "
                    f"(spec hash {store.spec.spec_hash()[:12]} != {spec.spec_hash()[:12]})"
                )
            # Prefer the caller's spec object: it may carry runtime-only
            # context (e.g. the spec file's base_dir for trace resolution)
            # that the manifest snapshot cannot.
            store.spec = spec
            return store
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format_version": STORE_FORMAT_VERSION,
            "backend": STORE_BACKEND,
            "spec": spec.as_dict(),
            "spec_hash": spec.spec_hash(),
        }
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        store = cls(directory, spec)
        store._load()
        return store

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "ResultStore":
        """Open an existing store, recovering its spec from the manifest."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ExperimentError(f"cannot open result store {directory}: {error}") from error
        version = manifest.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise ExperimentError(
                f"unsupported store format version {version!r} (expected {STORE_FORMAT_VERSION})"
            )
        backend = manifest.get("backend", STORE_BACKEND)
        if backend != STORE_BACKEND:
            # Refuse rather than resume: a resume would start an empty
            # results.jsonl beside the old records and re-run every cell.
            raise ExperimentError(
                f"store {directory} uses the {backend!r} backend, which is no longer "
                "supported; convert it to jsonl first ('Migrating sqlite stores' in "
                "docs/campaigns.md)"
            )
        spec = CampaignSpec.from_dict(manifest["spec"])
        if spec.spec_hash() != manifest.get("spec_hash"):
            raise ExperimentError(f"store {directory}: manifest spec hash mismatch (corrupt?)")
        store = cls(directory, spec)
        store._load()
        return store

    @property
    def _jsonl_path(self) -> Path:
        return self.directory / "results.jsonl"

    def _load(self) -> None:
        self._records = {}
        if not self._jsonl_path.exists():
            return
        text = self._jsonl_path.read_text()
        lines = text.splitlines(keepends=True)
        for line_number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if line_number == len(lines) and not line.endswith("\n"):
                    # Half-written trailing record from a killed run (or
                    # one a live writer is still appending): the cell never
                    # completed, so dropping it is the correct resume
                    # semantics.  The first append truncates the fragment
                    # away so it starts on a fresh line instead of gluing
                    # onto it (which would corrupt the store).
                    self._torn_bytes = len(line.encode())
                    return
                record = None
            if not _is_record(record):
                raise ExperimentError(f"corrupt record at {self._jsonl_path}:{line_number}")
            self._records[record["cell"]] = record
        # The last record decoded, so its JSON object closed and the record
        # is whole; only its newline is missing.  The first append restores
        # it so the new record starts on a fresh line.
        self._needs_newline = bool(text) and not text.endswith("\n")

    def _repair_tail(self) -> None:
        """Apply the tail repair :meth:`_load` noted (writers only)."""
        if self._torn_bytes:
            with self._jsonl_path.open("r+b") as handle:
                handle.truncate(handle.seek(0, 2) - self._torn_bytes)
        elif self._needs_newline:
            with self._jsonl_path.open("a") as handle:
                handle.write("\n")
        self._torn_bytes = 0
        self._needs_newline = False

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def completed_cells(self) -> Set[int]:
        """Indices of cells already recorded."""
        return set(self._records)

    def records(self) -> List[dict]:
        """All records, in canonical cell order."""
        return [self._records[index] for index in sorted(self._records)]

    def results(self) -> List[InstanceResult]:
        """All records as :class:`InstanceResult`, in canonical cell order."""
        return [_result_from_record(record) for record in self.records()]

    def results_by_cell(self) -> Dict[int, InstanceResult]:
        """All records as cell-index -> :class:`InstanceResult`."""
        return {index: _result_from_record(record) for index, record in self._records.items()}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, cell_index: int) -> bool:
        return cell_index in self._records

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(self, cell: CampaignCell, result: InstanceResult) -> None:
        """Durably record one completed cell (idempotent for identical results)."""
        record = _record_payload(cell, result)
        existing = self._records.get(cell.index)
        if existing is not None:
            if _stable_part(existing) != _stable_part(record):
                raise ExperimentError(
                    f"cell {cell.index} already recorded with a different result "
                    f"({cell.label()}); refusing to overwrite"
                )
            return
        if self._jsonl_handle is None:
            self._repair_tail()
            self._jsonl_handle = self._jsonl_path.open("a")
        self._jsonl_handle.write(jsonl_line(record))
        self._jsonl_handle.flush()
        self._records[cell.index] = record

    def _rewrite(self, records: Sequence[dict]) -> None:
        """Replace the store contents with *records* (canonical order enforced)."""
        ordered = sorted(records, key=lambda record: int(record["cell"]))
        self.close()
        self._jsonl_path.write_text("".join(jsonl_line(record) for record in ordered))
        self._torn_bytes = 0
        self._needs_newline = False
        self._records = {int(record["cell"]): record for record in ordered}

    def close(self) -> None:
        if self._jsonl_handle is not None:
            self._jsonl_handle.close()
            self._jsonl_handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Merging shard stores
# ----------------------------------------------------------------------
def merge_stores(
    sources: Sequence[Union[str, Path]], destination: Union[str, Path]
) -> ResultStore:
    """Merge shard stores into *destination* (``repro merge``).

    All sources (and the destination, if it already exists) must carry the
    same spec hash.  Overlapping cells are allowed only when their records
    agree (ignoring wall-time); the merged store is written in canonical
    cell order, so merging a complete shard set reproduces the unsharded
    store record-for-record.
    """
    if not sources:
        raise ExperimentError("merge needs at least one source store")
    opened = [ResultStore.open(source) for source in sources]
    spec = opened[0].spec
    reference_hash = spec.spec_hash()
    for store in opened[1:]:
        if store.spec.spec_hash() != reference_hash:
            raise ExperimentError(
                f"cannot merge {store.directory}: spec hash differs from {opened[0].directory}"
            )
    merged: Dict[int, dict] = {}
    for store in opened:
        for record in store.records():
            index = int(record["cell"])
            existing = merged.get(index)
            if existing is not None and _stable_part(existing) != _stable_part(record):
                raise ExperimentError(
                    f"conflicting records for cell {index} while merging {store.directory}"
                )
            merged.setdefault(index, record)
        store.close()
    destination_store = ResultStore.create(destination, spec)
    for record in destination_store.records():
        index = int(record["cell"])
        existing = merged.get(index)
        if existing is not None and _stable_part(existing) != _stable_part(record):
            raise ExperimentError(f"conflicting records for cell {index} in {destination}")
        merged.setdefault(index, record)
    destination_store._rewrite(list(merged.values()))
    return destination_store


# ----------------------------------------------------------------------
# Completion status
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreStatus:
    """Completion summary of a store against its spec."""

    directory: str
    spec_name: str
    spec_hash: str
    total_cells: int
    completed: int
    by_heuristic: Tuple[Tuple[str, int, int], ...]  # (heuristic, done, total)

    @property
    def remaining(self) -> int:
        return self.total_cells - self.completed


def store_status(store: ResultStore) -> StoreStatus:
    """Compute how much of the spec's cell enumeration the store covers."""
    spec = store.spec
    completed = store.completed_cells()
    per_heuristic_total = spec.num_cells() // len(spec.heuristics)
    done_by_heuristic = {heuristic: 0 for heuristic in spec.heuristics}
    # Heuristics are the innermost loop of the cell enumeration, so a cell's
    # heuristic is its index modulo the heuristic count — no need to
    # materialise the (possibly 100k-cell) enumeration for a status query.
    for index in completed:
        done_by_heuristic[spec.heuristics[index % len(spec.heuristics)]] += 1
    return StoreStatus(
        directory=str(store.directory),
        spec_name=spec.name,
        spec_hash=spec.spec_hash(),
        total_cells=spec.num_cells(),
        completed=len(completed),
        by_heuristic=tuple(
            (heuristic, done_by_heuristic[heuristic], per_heuristic_total)
            for heuristic in spec.heuristics
        ),
    )
