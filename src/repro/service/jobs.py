"""Durable campaign jobs: the queue behind ``POST /campaigns``.

A *job* is one submitted campaign.  Its identity is the campaign spec's
content hash (:meth:`~repro.experiments.spec.CampaignSpec.spec_hash`), which
is what makes submission idempotent: any number of clients POSTing the same
spec — concurrently or days apart — attach to the same job and therefore to
the same result store.  Everything is persisted as plain files next to the
stores, so a restarted service resumes exactly like ``repro campaign`` does:

.. code-block:: text

    <root>/
      jobs/<id>.json     one JSON document per job (status, options, spec)
      stores/<id>/       the job's ResultStore (manifest + results.jsonl)
      logs/<id>.log      combined stdout/stderr of the job's worker runs

Job files are written atomically (write-to-temp + ``os.link``/``os.replace``),
so concurrent submitters race safely: exactly one creates the job, everyone
else reads the existing document.  Workers are separate processes
(:mod:`repro.service.worker`); a killed worker loses at most the cell in
flight, because results land durably in the store per cell — re-dispatching
the job resumes from the store and reproduces the uninterrupted results
bit-for-bit (the campaign runner's resume contract).

Job lifecycle::

    queued -> running -> completed
                  |         ^
                  v         |  (worker died: re-queued up to max_attempts,
    failed  <- queued ------+   then failed)
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import ExperimentError
from repro.experiments.spec import CampaignSpec

__all__ = [
    "JOB_STATUSES",
    "JobQueue",
    "WorkerPool",
    "spawn_worker",
]

_LOG = logging.getLogger(__name__)

JOB_FORMAT_VERSION = 1
JOB_STATUSES = ("queued", "running", "completed", "failed")

#: Job-file fields every document carries (pinned by the service tests).
JOB_FIELDS = (
    "id",
    "format_version",
    "name",
    "spec",
    "spec_hash",
    "base_dir",
    "status",
    "attempts",
    "pid",
    "submitted_at",
    "started_at",
    "finished_at",
    "error",
    "options",
    "total_cells",
)


def _worker_alive(pid: Optional[int], job_path: Path) -> bool:
    """Whether *pid* is a live worker of the job file *job_path*.

    Where ``/proc/<pid>/cmdline`` exists, the process must also carry the
    job file's resolved path on its command line (as :func:`spawn_worker`
    puts it there), so a pid recycled by an unrelated process after a
    restart counts as dead.  Elsewhere ``os.kill(pid, 0)`` decides (denied
    permission counts as alive).
    """
    if not pid:
        return False
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # alive, but owned by another user
    except OSError:
        return False
    try:
        arguments = Path(f"/proc/{int(pid)}/cmdline").read_bytes().split(b"\0")
    except OSError:
        return True
    return os.fsencode(str(job_path.resolve())) in arguments


class JobQueue:
    """The durable job directory: submit, read, update, recover.

    One queue owns one *root* directory.  All state lives in the job files —
    the queue keeps no caches, so any number of readers (HTTP handler
    threads, the dispatcher, ``repro campaign --status`` pointed at a job's
    store) observe a consistent view through atomic file replacement.

    Example (no HTTP involved)::

        queue = JobQueue("/tmp/service-root")
        job, deduplicated = queue.submit(builtin_spec("smoke"))
        assert not deduplicated
        again, deduplicated = queue.submit(builtin_spec("smoke"))
        assert deduplicated and again["id"] == job["id"]
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        #: Optional :class:`repro.telemetry.Tracer` — when set, the queue and
        #: pool emit ``job.*`` lifecycle events (enqueue/claim/finish/requeue).
        self.tracer = None
        # Re-entrant: update() holds the lock while minting a temp path.
        self._lock = threading.RLock()
        self._counter = 0
        for sub in ("jobs", "stores", "logs"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def jobs_dir(self) -> Path:
        """Directory holding one JSON file per job."""
        return self.root / "jobs"

    def job_path(self, job_id: str) -> Path:
        """Path of the job file for *job_id* (existing or not)."""
        return self.jobs_dir / f"{job_id}.json"

    def store_dir(self, job_id: str) -> Path:
        """Directory of the job's ResultStore (created by the worker)."""
        return self.root / "stores" / job_id

    def log_path(self, job_id: str) -> Path:
        """Path of the job's worker stdout/stderr log."""
        return self.root / "logs" / f"{job_id}.log"

    # ------------------------------------------------------------------
    # Submission (idempotent on the spec content hash)
    # ------------------------------------------------------------------
    def submit(
        self, spec: CampaignSpec, *, options: Optional[dict] = None
    ) -> Tuple[dict, bool]:
        """Submit *spec*; returns ``(job, deduplicated)``.

        The job id is the spec's content hash.  If a job with that id
        already exists — whatever its status — the existing document is
        returned with ``deduplicated=True`` and nothing is written: the
        submitting client simply attaches to the shared run.  Creation is
        atomic (temp file + hard link), so exactly one of any number of
        concurrent identical submissions creates the job.
        """
        job_id = spec.spec_hash()
        path = self.job_path(job_id)
        existing = self.job(job_id)
        if existing is not None:
            return existing, True
        job = {
            "id": job_id,
            "format_version": JOB_FORMAT_VERSION,
            "name": spec.name,
            "spec": spec.as_dict(),
            "spec_hash": job_id,
            "base_dir": spec.base_dir,
            "status": "queued",
            "attempts": 0,
            "pid": None,
            "submitted_at": time.time(),
            "started_at": None,
            "finished_at": None,
            "error": None,
            "options": dict(options or {}),
            "total_cells": spec.num_cells(),
        }
        temp = self._temp_path(path)
        temp.write_text(json.dumps(job, indent=2, sort_keys=True) + "\n")
        try:
            os.link(temp, path)
        except FileExistsError:
            # Another submitter won the race; their document is canonical.
            existing = self.job(job_id)
            if existing is None:  # pragma: no cover - narrow re-race window
                raise ExperimentError(f"job {job_id} vanished during submission")
            return existing, True
        finally:
            temp.unlink(missing_ok=True)
        if self.tracer is not None:
            self.tracer.event(
                "job.enqueue", job=job_id, campaign=spec.name, cells=job["total_cells"]
            )
        return job, False

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Optional[dict]:
        """The job document for *job_id*, or ``None``."""
        path = self.job_path(job_id)
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except json.JSONDecodeError as error:
            raise ExperimentError(f"corrupt job file {path}: {error}") from error

    def jobs(self) -> List[dict]:
        """All jobs, oldest submission first (id breaks ties)."""
        documents = []
        for path in self.jobs_dir.glob("*.json"):
            try:
                documents.append(json.loads(path.read_text()))
            except (OSError, json.JSONDecodeError):
                continue
        documents.sort(key=lambda job: (job.get("submitted_at", 0.0), job.get("id", "")))
        return documents

    def counts(self) -> Dict[str, int]:
        """Jobs per status (all statuses present, zero-filled)."""
        totals = {status: 0 for status in JOB_STATUSES}
        for job in self.jobs():
            totals[job.get("status", "queued")] = totals.get(job.get("status", "queued"), 0) + 1
        return totals

    def stale_jobs(self) -> List[str]:
        """Ids of jobs marked ``running`` whose recorded pid is dead.

        These are jobs orphaned by a crashed worker that the pool's reaper
        (or :meth:`recover` after a restart) has not picked up yet — the
        health endpoint surfaces them as a degradation signal.
        """
        return [
            job["id"]
            for job in self.jobs()
            if self._orphaned(job)
        ]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(self, job_id: str, **fields) -> dict:
        """Atomically merge *fields* into the job document and return it."""
        with self._lock:
            job = self.job(job_id)
            if job is None:
                raise ExperimentError(f"unknown job {job_id!r}")
            job.update(fields)
            path = self.job_path(job_id)
            temp = self._temp_path(path)
            temp.write_text(json.dumps(job, indent=2, sort_keys=True) + "\n")
            os.replace(temp, path)
            return job

    def recover(self) -> List[str]:
        """Re-queue jobs whose worker died while the service was down.

        A job marked ``running`` whose recorded pid no longer exists was
        orphaned by a crash or restart; its store already holds every cell
        that completed, so re-queueing it resumes rather than restarts.
        Returns the re-queued job ids.
        """
        requeued = []
        for job in self.jobs():
            if self._orphaned(job):
                self.update(job["id"], status="queued", pid=None)
                requeued.append(job["id"])
        return requeued

    def _orphaned(self, job: dict) -> bool:
        """Whether *job* is ``running`` without a live worker process."""
        return job.get("status") == "running" and not _worker_alive(
            job.get("pid"), self.job_path(job["id"])
        )

    def _temp_path(self, path: Path) -> Path:
        with self._lock:
            self._counter += 1
            counter = self._counter
        return path.with_name(f".{path.name}.tmp-{os.getpid()}-{counter}")


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
def _worker_environment() -> dict:
    """Child env with the running ``repro`` package importable."""
    import repro

    source_root = str(Path(repro.__file__).resolve().parent.parent)
    environment = dict(os.environ)
    existing = environment.get("PYTHONPATH", "")
    if source_root not in existing.split(os.pathsep):
        environment["PYTHONPATH"] = (
            source_root + os.pathsep + existing if existing else source_root
        )
    return environment


def spawn_worker(
    job_path: Union[str, Path],
    log_path: Union[str, Path],
    *,
    trace_dir: Optional[Union[str, Path]] = None,
) -> subprocess.Popen:
    """Start one worker process over *job_path* (stdout+stderr appended to the log).

    The worker gets the job file's resolved path, which is how a restarted
    queue recognises its live workers (see :func:`_worker_alive`).

    *trace_dir* (if given) is exported as ``REPRO_TRACE_DIR``: the worker
    opens a span tracer there and wraps the whole run in a ``job.run`` span,
    so service-side traces line up with the engine spans the run emits.
    """
    log_handle = open(log_path, "ab")
    environment = _worker_environment()
    if trace_dir is not None:
        environment["REPRO_TRACE_DIR"] = str(trace_dir)
    try:
        return subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker", str(Path(job_path).resolve())],
            stdout=log_handle,
            stderr=subprocess.STDOUT,
            env=environment,
        )
    finally:
        log_handle.close()


class WorkerPool:
    """Process-based pool draining a :class:`JobQueue`.

    A dispatcher thread polls the queue, keeps at most *workers* worker
    processes alive, and reaps them as they exit.  A worker that exits
    without reaching a terminal status (killed, crashed) has its job
    re-queued — up to *max_attempts* abnormal deaths, after which the job is
    failed.  A worker may also exit zero with the job back in ``queued``
    (cooperative yield, e.g. the ``max_cells`` testing option); that is
    re-dispatched without counting as a failure.
    """

    def __init__(
        self,
        queue: JobQueue,
        *,
        workers: int = 2,
        poll_interval: float = 0.2,
        max_attempts: int = 3,
        trace_dir: Optional[Union[str, Path]] = None,
    ):
        if workers < 1:
            raise ExperimentError(f"worker pool needs >= 1 worker, got {workers}")
        if max_attempts < 1:
            raise ExperimentError(f"max_attempts must be >= 1, got {max_attempts}")
        self.queue = queue
        self.workers = int(workers)
        self.poll_interval = float(poll_interval)
        self.max_attempts = int(max_attempts)
        #: Forwarded to every spawned worker as ``REPRO_TRACE_DIR``.
        self.trace_dir = trace_dir
        self._procs: Dict[str, subprocess.Popen] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: Dispatcher ticks that raised since the pool was created.
        self.tick_errors = 0
        #: Whether the most recent dispatcher tick raised.
        self.last_tick_failed = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Recover orphaned jobs, then start the dispatcher thread."""
        if self._thread is not None:
            return
        self.queue.recover()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="repro-service-pool", daemon=True)
        self._thread.start()

    def stop(self, *, terminate_workers: bool = True, timeout: float = 10.0) -> None:
        """Stop dispatching; optionally terminate live workers (re-queued on recover)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=timeout)
        self._thread = None
        if terminate_workers:
            for proc in self._procs.values():
                if proc.poll() is None:
                    proc.terminate()
            for proc in self._procs.values():
                try:
                    proc.wait(timeout=timeout)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
        self._reap()

    @property
    def active_workers(self) -> int:
        """Number of worker processes currently running a job."""
        return sum(1 for proc in self._procs.values() if proc.poll() is None)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.tick()
            except Exception:  # keep the dispatcher alive, but say why
                self.tick_errors += 1
                self.last_tick_failed = True
                _LOG.exception("service dispatcher tick failed")
            else:
                self.last_tick_failed = False
            self._stop.wait(self.poll_interval)

    def tick(self) -> None:
        """One dispatcher round: reap exited workers, then fill free slots."""
        self._reap()
        free = self.workers - len(self._procs)
        if free <= 0:
            return
        for job in self.queue.jobs():
            if free <= 0:
                break
            if job.get("status") != "queued" or job["id"] in self._procs:
                continue
            self._procs[job["id"]] = spawn_worker(
                self.queue.job_path(job["id"]),
                self.queue.log_path(job["id"]),
                trace_dir=self.trace_dir,
            )
            if self.queue.tracer is not None:
                self.queue.tracer.event(
                    "job.claim", job=job["id"], attempts=job.get("attempts", 0)
                )
            free -= 1

    def _reap(self) -> None:
        tracer = self.queue.tracer
        for job_id in list(self._procs):
            proc = self._procs[job_id]
            if proc.poll() is None:
                continue
            del self._procs[job_id]
            job = self.queue.job(job_id)
            if job is None or job.get("status") in ("completed", "failed"):
                if tracer is not None and job is not None:
                    tracer.event(
                        "job.finish", job=job_id, status=job.get("status"),
                        exit_code=proc.returncode,
                    )
                continue
            if proc.returncode == 0 and job.get("status") == "queued":
                if tracer is not None:
                    tracer.event("job.requeue", job=job_id, reason="yield")
                continue  # cooperative yield: progress made, more to do
            attempts = int(job.get("attempts", 0)) + 1
            if attempts >= self.max_attempts:
                self.queue.update(
                    job_id,
                    status="failed",
                    attempts=attempts,
                    pid=None,
                    finished_at=time.time(),
                    error=(
                        f"worker died (exit code {proc.returncode}) "
                        f"after {attempts} attempts"
                    ),
                )
                if tracer is not None:
                    tracer.event(
                        "job.finish", job=job_id, status="failed",
                        exit_code=proc.returncode, attempts=attempts,
                    )
            else:
                self.queue.update(job_id, status="queued", attempts=attempts, pid=None)
                if tracer is not None:
                    tracer.event(
                        "job.requeue", job=job_id, reason="died",
                        exit_code=proc.returncode, attempts=attempts,
                    )
