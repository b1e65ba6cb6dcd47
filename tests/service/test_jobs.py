"""JobQueue and WorkerPool unit tests (no HTTP; subprocesses only where noted)."""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.spec import CampaignSpec
from repro.service.app import ServiceConfig, ServiceState
from repro.service.jobs import JOB_FIELDS, JobQueue, WorkerPool

from tests.service.conftest import tiny_spec_dict


def make_spec(name: str = "jobs-test") -> CampaignSpec:
    return CampaignSpec.from_dict(tiny_spec_dict(name))


def _wait_for_exec(pid: int, job_path, timeout: float = 5.0) -> None:
    """Wait until process *pid* has ``exec``ed a command line naming *job_path*.

    Right after ``Popen`` returns, the child may still run the parent's
    image, so its ``/proc/<pid>/cmdline`` does not name the job file yet and
    the live job would look recycled.  Without procfs there is nothing to
    wait for.
    """
    cmdline = f"/proc/{pid}/cmdline"
    if not os.path.exists(cmdline):
        return
    wanted = os.fsencode(str(job_path))
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(cmdline, "rb") as handle:
                if wanted in handle.read().split(b"\0"):
                    return
        except OSError:
            pass
        time.sleep(0.01)


def test_submit_creates_job_with_pinned_fields(tmp_path):
    queue = JobQueue(tmp_path)
    spec = make_spec()
    job, deduplicated = queue.submit(spec)
    assert not deduplicated
    assert job["id"] == spec.spec_hash()
    assert job["status"] == "queued"
    assert job["total_cells"] == spec.num_cells()
    assert sorted(job) == sorted(JOB_FIELDS)
    # The document on disk is the same one.
    on_disk = json.loads(queue.job_path(job["id"]).read_text())
    assert on_disk == job


def test_submit_is_idempotent_on_spec_hash(tmp_path):
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(make_spec(), options={"n_jobs": 1})
    again, deduplicated = queue.submit(make_spec(), options={"n_jobs": 4})
    assert deduplicated
    assert again["id"] == job["id"]
    # First submitter's options win; the duplicate changed nothing on disk.
    assert again["options"] == {"n_jobs": 1}


def test_concurrent_submissions_create_exactly_one_job(tmp_path):
    queue = JobQueue(tmp_path)
    spec = make_spec()
    outcomes = []
    barrier = threading.Barrier(8)

    def submit():
        barrier.wait()
        outcomes.append(queue.submit(spec))

    threads = [threading.Thread(target=submit) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(outcomes) == 8
    created = [job for job, deduplicated in outcomes if not deduplicated]
    assert len(created) == 1, "exactly one submission must create the job"
    assert len({job["id"] for job, _ in outcomes}) == 1
    assert len(list(queue.jobs_dir.glob("*.json"))) == 1


def test_update_merges_atomically(tmp_path):
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(make_spec())
    updated = queue.update(job["id"], status="running", pid=1234)
    assert updated["status"] == "running"
    assert queue.job(job["id"])["pid"] == 1234
    with pytest.raises(ExperimentError, match="unknown job"):
        queue.update("nope", status="failed")


def test_counts_and_listing_order(tmp_path):
    queue = JobQueue(tmp_path)
    first, _ = queue.submit(make_spec("a"))
    second, _ = queue.submit(make_spec("b"))
    queue.update(second["id"], status="completed")
    counts = queue.counts()
    assert counts == {"queued": 1, "running": 0, "completed": 1, "failed": 0}
    listed = queue.jobs()
    assert [job["id"] for job in listed] == [first["id"], second["id"]]


def test_recover_requeues_jobs_with_dead_pids(tmp_path):
    queue = JobQueue(tmp_path)
    dead, _ = queue.submit(make_spec("dead"))
    alive, _ = queue.submit(make_spec("alive"))
    # A live stand-in worker: like spawn_worker's children it carries its
    # job file on the command line.
    worker = subprocess.Popen(
        [
            sys.executable, "-c", "import time; time.sleep(60)",
            str(queue.job_path(alive["id"]).resolve()),
        ]
    )
    try:
        queue.update(dead["id"], status="running", pid=2 ** 30)  # no such pid
        queue.update(alive["id"], status="running", pid=worker.pid)
        _wait_for_exec(worker.pid, queue.job_path(alive["id"]).resolve())
        assert queue.stale_jobs() == [dead["id"]]
        requeued = queue.recover()
    finally:
        worker.kill()
        worker.wait()
    assert requeued == [dead["id"]]
    assert queue.job(dead["id"])["status"] == "queued"
    assert queue.job(alive["id"])["status"] == "running"


@pytest.mark.skipif(not os.path.exists("/proc/self/cmdline"), reason="needs procfs")
def test_recover_requeues_job_whose_pid_was_recycled(tmp_path):
    # After a restart the recorded worker pid may belong to an unrelated live
    # process (here: the test process itself, whose command line does not
    # name the job file).  The job is orphaned all the same.
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(make_spec("recycled"))
    queue.update(job["id"], status="running", pid=os.getpid())
    assert queue.stale_jobs() == [job["id"]]
    assert queue.recover() == [job["id"]]
    assert queue.job(job["id"])["status"] == "queued"
    assert queue.job(job["id"])["pid"] is None


def test_pool_requeues_abnormal_death_then_fails_at_max_attempts(tmp_path):
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(make_spec())
    pool = WorkerPool(queue, workers=1, max_attempts=2)

    class FakeProc:
        returncode = -9

        def poll(self):
            return self.returncode

    # First abnormal death: re-queued with attempts=1.
    queue.update(job["id"], status="running")
    pool._procs[job["id"]] = FakeProc()
    pool._reap()
    document = queue.job(job["id"])
    assert document["status"] == "queued"
    assert document["attempts"] == 1
    # Second abnormal death reaches max_attempts: failed.
    queue.update(job["id"], status="running")
    pool._procs[job["id"]] = FakeProc()
    pool._reap()
    document = queue.job(job["id"])
    assert document["status"] == "failed"
    assert "worker died" in document["error"]


def test_pool_treats_clean_exit_with_queued_status_as_yield(tmp_path):
    queue = JobQueue(tmp_path)
    job, _ = queue.submit(make_spec())

    class FakeProc:
        returncode = 0

        def poll(self):
            return self.returncode

    pool = WorkerPool(queue, workers=1, max_attempts=2)
    # Worker exited zero after putting the job back to queued (max_cells).
    pool._procs[job["id"]] = FakeProc()
    pool._reap()
    document = queue.job(job["id"])
    assert document["status"] == "queued"
    assert document["attempts"] == 0, "cooperative yield must not count as a failure"


def test_pool_validates_configuration(tmp_path):
    queue = JobQueue(tmp_path)
    with pytest.raises(ExperimentError):
        WorkerPool(queue, workers=0)
    with pytest.raises(ExperimentError):
        WorkerPool(queue, max_attempts=0)


def test_dispatcher_logs_tick_errors_and_keeps_polling(tmp_path, monkeypatch, caplog):
    state = ServiceState(ServiceConfig(root=tmp_path, workers=1, poll_interval=0.01))
    pool = state.pool
    calls = []
    jobs = state.queue.jobs

    def broken_jobs():
        # Only the dispatcher's reads fail, so the probes below still answer.
        if threading.current_thread().name != "repro-service-pool":
            return jobs()
        calls.append(None)
        raise ExperimentError("corrupt job file")

    def health_status():
        return state.handle_health()[1]["status"]

    caplog.set_level(logging.ERROR, logger="repro.service.jobs")
    state.start()
    try:
        assert health_status() == "ok"
        monkeypatch.setattr(state.queue, "jobs", broken_jobs)
        deadline = time.monotonic() + 10.0
        while len(calls) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(calls) >= 3, "the dispatcher must keep polling after a failed tick"
        # Failed ticks are counted and exported, and degrade the probe.
        assert health_status() == "degraded"
        metrics = state.handle_metrics()[1]
        (line,) = [
            line for line in metrics.splitlines()
            if line.startswith("repro_dispatcher_errors_total ")
        ]
        assert int(line.split()[1]) >= 3
        # The probe recovers with the first tick that succeeds again.
        monkeypatch.undo()
        deadline = time.monotonic() + 10.0
        while health_status() != "ok" and time.monotonic() < deadline:
            time.sleep(0.01)
        assert health_status() == "ok"
    finally:
        state.stop()
    assert pool.tick_errors >= 3
    records = [r for r in caplog.records if r.name == "repro.service.jobs"]
    assert records, "a failed tick must be logged"
    assert records[0].levelno == logging.ERROR
    assert "corrupt job file" in str(records[0].exc_info[1])
