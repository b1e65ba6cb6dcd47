"""Child entry point: one cold-start ``repro campaign`` invocation.

    python3 perfbench/launch.py --marker FILE [--ledger FILE] -- <repro arguments>

Runs ``repro.cli.main`` exactly as ``python -m repro`` does.  ``--marker``
receives the ``time.monotonic()`` reading at the start of the first cell:
the moment the runner has scanned the store for completed cells, after
imports, spec parsing and store open.  ``--ledger`` turns on the traced mode:
``import repro.cli`` is timed, every layer boundary is shimmed by
:class:`ledger.Ledger` for the whole invocation, and the ledger snapshot is
written as JSON afterwards, together with a check that every shim was
removed again.
"""

from __future__ import annotations

import json
import sys
import time


def _parse(argv):
    options = {"--marker": None, "--ledger": None}
    while argv and argv[0] != "--":
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag not in options:
            raise SystemExit(f"launch.py: unknown option {flag}")
        options[flag] = value
    return options["--marker"], options["--ledger"], argv[1:]


def _mark_first_cell(marker: str) -> None:
    """Record when the runner first asks the store which cells are done."""
    from repro.experiments.store import ResultStore

    original = ResultStore.completed_cells

    def completed_cells(self):
        result = original(self)
        ResultStore.completed_cells = original
        with open(marker, "w") as handle:
            handle.write(repr(time.monotonic()))
        return result

    ResultStore.completed_cells = completed_cells


def main(argv) -> int:
    launched = time.monotonic()
    marker, ledger_path, repro_argv = _parse(argv)
    if ledger_path is None:
        import repro.cli

        if marker is not None:
            _mark_first_cell(marker)
        return repro.cli.main(repro_argv)

    started = time.perf_counter()
    import repro.cli

    import_seconds = time.perf_counter() - started
    from ledger import Ledger

    ledger = Ledger()
    ledger.install()
    campaign_started = time.monotonic()
    try:
        code = repro.cli.main(repro_argv)
    finally:
        campaign_finished = time.monotonic()
        ledger.uninstall()
        with open(ledger_path, "w") as handle:
            json.dump(
                {
                    "import_s": import_seconds,
                    # monotonic clock readings, comparable with the parent's
                    "launched": launched,
                    "campaign_started": campaign_started,
                    "campaign_finished": campaign_finished,
                    "snapshot": ledger.snapshot(),
                    "patches": ledger.patch_count,
                    "restored": ledger.restored(),
                },
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
