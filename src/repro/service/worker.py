"""Worker process: ``python -m repro.service.worker <job.json>``.

One invocation executes (or resumes) one job: it rebuilds the
:class:`~repro.experiments.spec.CampaignSpec` from the job document, opens
the job's :class:`~repro.experiments.store.ResultStore` and calls
:func:`~repro.experiments.runner.run_campaign_spec` — exactly the code path
of ``repro campaign --spec ... --store ...``.  All durability guarantees are
therefore the campaign runner's: cells append to the store as they finish,
completed cells are skipped on re-invocation, and a killed worker resumes to
byte-identical results (wall-clock measurements aside).

The worker communicates through the job file alone: it marks the job
``running`` (with its pid) on entry and ``completed`` / ``failed`` on exit.
If it dies without reaching a terminal status, the pool re-queues the job
(:class:`~repro.service.jobs.WorkerPool`), or — after a full service restart
— :meth:`~repro.service.jobs.JobQueue.recover` does, because the recorded
pid no longer exists.

The ``max_cells`` option makes the worker *stop early* after that many newly
run cells and hand the job back as ``queued``: a deterministic stand-in for
an interrupted worker, used by the service tests and useful for draining a
service gracefully.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

__all__ = ["main", "run_job"]


def run_job(job_path: Path) -> int:
    """Execute one job file; returns the process exit code."""
    from repro.exceptions import ReproError
    from repro.experiments.runner import run_campaign_spec
    from repro.experiments.spec import CampaignSpec
    from repro.experiments.store import ResultStore, store_status
    from repro.service.jobs import JobQueue
    from repro.telemetry import shared_tracer

    job = json.loads(job_path.read_text())
    root = job_path.parent.parent
    queue = JobQueue(root)
    job_id = job["id"]
    queue.update(job_id, status="running", pid=os.getpid(), started_at=time.time())
    options = job.get("options", {})
    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    tracer = shared_tracer(trace_dir) if trace_dir else None
    try:
        base_dir = job.get("base_dir")
        spec = CampaignSpec.from_dict(
            job["spec"], base_dir=Path(base_dir) if base_dir else None
        )
        store = ResultStore.create(queue.store_dir(job_id), spec)
        try:
            start_ns = time.perf_counter_ns()
            run_campaign_spec(
                spec,
                store=store,
                n_jobs=int(options.get("n_jobs") or 1),
                max_cells=options.get("max_cells"),
                collect_metrics=options.get("collect_metrics"),
                metrics_stride=options.get("metrics_stride"),
                trace_dir=trace_dir,
            )
            remaining = store_status(store).remaining
            if tracer is not None:
                tracer.record(
                    "job.run", start_ns, job=job_id, campaign=job.get("name"),
                    remaining=remaining,
                )
        finally:
            store.close()
            if tracer is not None:
                # Shared per-process tracer: flush, never close (the runner
                # holds the same handle).  The process exits right after.
                tracer.flush()
    except ReproError as error:
        queue.update(
            job_id, status="failed", pid=None, finished_at=time.time(), error=str(error)
        )
        return 1
    if remaining > 0:
        # Cooperative yield (max_cells): progress is in the store; the pool
        # re-dispatches until the campaign is complete.
        queue.update(job_id, status="queued", pid=None)
        return 0
    queue.update(job_id, status="completed", pid=None, finished_at=time.time(), error=None)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point (one positional argument: the job file)."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if len(arguments) != 1:
        print("usage: python -m repro.service.worker <job.json>", file=sys.stderr)
        return 2
    return run_job(Path(arguments[0]))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
