"""Cold-start campaign benchmark: end-to-end metrics and a per-layer ledger.

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every metric of every workload

Run from the repository root.  Each workload (see ``workloads.py``) is a
generated campaign spec run as cold-start ``repro campaign`` subprocesses.
With ``--trace 0`` the invocations run untraced, repeated while ``--seconds``
lasts, and the end-to-end metrics are reported as medians over the
repetitions.  With ``--trace 1`` one untraced repetition is followed by a
traced one (``--jobs 1``, every layer shimmed by ``ledger.Ledger``) and the
per-layer metrics are reported.  Every finished store is checked: against
the committed per-cell digests for the default seed, against result
invariants for any other seed, and a traced store against its untraced twin.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (campaign cells checked / wrong or
missing) and ``metrics``; the line before it is a report with the machine
record and the raw samples.  ``perfbench/README.md`` documents every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ledger import covered_seconds, layer_metrics, merge_snapshots  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

DIGESTS_PATH = HERE / "digests.json"
LAUNCH = HERE / "launch.py"
#: Every run ends well inside the three minutes a run may take.
RUN_BUDGET_SECONDS = 165.0
#: Set-up samples per invocation (repetitions plus ``--max-cells 0`` probes).
SETUP_SAMPLES = 5
MAX_REPETITIONS = 9
#: How often the speed probe pauses an untraced invocation to time a slice.
PROBE_PERIOD_S = 0.5
#: Seconds ``_speed_slice`` takes on the reference sandbox (2 vCPU Xeon,
#: Python 3.11.7) in its fast state; reported times are scaled to this speed.
REFERENCE_SLICE_S = 0.01

# ----------------------------------------------------------------------
# Subprocesses
# ----------------------------------------------------------------------
@dataclass
class Invocation:
    """One finished ``repro campaign`` process."""

    wall: float
    setup: float
    cpu: float
    rss_mb: float
    code: int
    #: ``time.monotonic()`` at spawn (the child's clock readings compare with it).
    spawned: float
    ledger: Optional[dict] = None
    #: Speed-probe slice times taken while the invocation ran.
    slices: List[float] = field(default_factory=list)


@dataclass
class Repetition:
    """The workload's invocations, run once into one store."""

    store: Path
    invocations: List[Invocation] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(item.wall for item in self.invocations)

    @property
    def setup(self) -> float:
        return sum(item.setup for item in self.invocations)

    @property
    def cpu(self) -> float:
        return sum(item.cpu for item in self.invocations)

    @property
    def rss_mb(self) -> float:
        return max(item.rss_mb for item in self.invocations)

    @property
    def ok(self) -> bool:
        return all(item.code == 0 for item in self.invocations)


class Bench:
    """One measurement's context: checkout root, its own scratch dir, a deadline."""

    def __init__(self, root: Path, scratch_parent: Path) -> None:
        self.root = root
        self.scratch = Path(tempfile.mkdtemp(prefix="bench-", dir=scratch_parent))
        self.deadline = time.monotonic() + RUN_BUDGET_SECONDS
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self._counter = 0
        #: Every campaign invocation so far (their probe slices scale the run).
        self.measured: List[Invocation] = []

    def path(self, stem: str) -> Path:
        self._counter += 1
        return self.scratch / f"{stem}-{self._counter}"

    def spawn(
        self,
        argv: List[str],
        marker: Optional[Path] = None,
        jobs: int = 1,
        probe: bool = False,
    ) -> Invocation:
        """Run *argv* to completion; wall from spawn to reaped exit.

        A single-process invocation (*jobs* 1) is pinned to one CPU.  With
        *probe*, a :class:`SpeedProbe` samples the speed of the CPUs it runs
        on throughout, and the pauses it makes are left out of the wall and
        set-up times.
        """
        log = self.path("log")
        cpus = sorted(os.sched_getaffinity(0))
        if jobs == 1:
            cpus = cpus[-1:]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(log, "wb") as output:
            start = time.monotonic()
            process = subprocess.Popen(
                argv, stdout=output, stderr=subprocess.STDOUT, env=self.env,
                cwd=self.root, start_new_session=True,
            )
            os.sched_setaffinity(process.pid, cpus)
            timer = threading.Timer(
                max(self.deadline - start, 1.0), _kill_group, args=(process.pid,)
            )
            timer.start()
            speed = SpeedProbe(process.pid, cpus)
            if probe:
                speed.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
                end = time.monotonic()
            finally:
                timer.cancel()
                if probe:
                    speed.finish()
        process.returncode = os.waitstatus_to_exitcode(status)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        wall = end - start - speed.paused_before(end)
        setup = wall
        if marker is not None and marker.exists():
            marked = float(marker.read_text())
            setup = marked - start - speed.paused_before(marked)
        if process.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"perfbench: {argv[3:]} exited {process.returncode}:\n{tail}", file=sys.stderr)
        return Invocation(
            wall, setup, cpu, usage.ru_maxrss / 1024.0, process.returncode, start,
            slices=speed.slices,
        )

    def campaign(
        self,
        workload: Workload,
        spec: Path,
        store: Path,
        extra: List[str],
        traced: bool = False,
        jobs: Optional[int] = None,
    ) -> Invocation:
        """One cold-start ``repro campaign`` invocation through ``launch.py``.

        Traced invocations run with ``--jobs 1`` so every call happens in
        the shimmed process; untraced ones use the workload's jobs unless
        *jobs* overrides it.
        """
        jobs = 1 if traced else jobs or workload.jobs
        repro_argv = [
            "campaign", "--spec", str(spec), "--store", str(store),
            "--jobs", str(jobs), "--report", "none", *extra,
        ]
        marker = self.path("marker")
        options = ["--ledger", str(marker)] if traced else ["--marker", str(marker)]
        invocation = self.spawn(
            [sys.executable, str(LAUNCH), *options, "--", *repro_argv],
            marker=None if traced else marker,
            jobs=jobs,
            probe=not traced,
        )
        if traced and marker.exists():
            invocation.ledger = json.loads(marker.read_text())
            invocation.ledger["spawned"] = invocation.spawned
        self.measured.append(invocation)
        return invocation

    def repetition(
        self,
        workload: Workload,
        spec: Path,
        traced: bool = False,
        keep_first: Optional[Path] = None,
        jobs: Optional[int] = None,
    ) -> Repetition:
        """Run every invocation into one fresh store.

        *keep_first* receives a copy of the store as the first invocation
        left it: the starting state of the resuming invocation's probes.
        """
        repetition = Repetition(self.path("store"))
        for index, extra in enumerate(workload.invocations()):
            if index == 1 and keep_first is not None:
                shutil.copytree(repetition.store, keep_first)
            repetition.invocations.append(
                self.campaign(workload, spec, repetition.store, extra, traced, jobs)
            )
        return repetition

    def setup_probe(self, workload: Workload, spec: Path, resume_from: Optional[Path]) -> float:
        """Set-up alone: an invocation that starts like a measured one, ``--max-cells 0``.

        The probe store is fresh, or a copy of *resume_from* for a resuming
        invocation.
        """
        store = self.path("probe")
        if resume_from is not None:
            shutil.copytree(resume_from, store)
        return self.campaign(workload, spec, store, ["--max-cells", "0"]).setup


class SpeedProbe(threading.Thread):
    """Samples the speed of the CPUs a child process group runs on, while it runs.

    The shared sandbox switches between a fast and a slow state every few
    seconds and drifts for minutes at a time; the campaign and any fixed
    piece of interpreter work slow down together.  Every ``PROBE_PERIOD_S``
    the probe stops the child's process group, times ``_speed_slice`` on
    each of the child's CPUs and lets the group continue.  The slice runs no
    ``repro`` code, so a change to the program cannot move it.
    """

    def __init__(self, pgid: int, cpus: List[int]) -> None:
        super().__init__(daemon=True)
        self.pgid = pgid
        self.cpus = cpus
        self.slices: List[float] = []
        self.pauses: List[tuple] = []
        self._done = threading.Event()

    def run(self) -> None:
        own = os.sched_getaffinity(0)
        while not self._done.wait(PROBE_PERIOD_S):
            paused = time.monotonic()
            try:
                os.killpg(self.pgid, signal.SIGSTOP)
            except ProcessLookupError:
                return
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    self.slices.append(_speed_slice())
            finally:
                os.sched_setaffinity(0, own)
                os.killpg(self.pgid, signal.SIGCONT)
            self.pauses.append((paused, time.monotonic()))

    def finish(self) -> None:
        self._done.set()
        self.join()

    def paused_before(self, moment: float) -> float:
        """Seconds the group spent stopped by the probe before *moment*."""
        return sum(min(end, moment) - start for start, end in self.pauses if start < moment)


def _speed_slice() -> float:
    """Seconds a fixed piece of interpreter work (dict updates, arithmetic) takes now."""
    start = time.perf_counter()
    table = {}
    total = 0
    for index in range(60_000):
        table[index & 1023] = total
        total += index % 7
    return time.perf_counter() - start


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def store_digests(store: Path) -> Dict[int, str]:
    """cell index -> digest of the record's stable (non-volatile) fields."""
    from repro.exceptions import ExperimentError
    from repro.experiments.store import VOLATILE_FIELDS, ResultStore

    try:
        opened = ResultStore.open(store)
    except ExperimentError:
        return {}
    try:
        records = opened.records()
    finally:
        opened.close()
    digests = {}
    for record in records:
        stable = {key: value for key, value in record.items() if key not in VOLATILE_FIELDS}
        text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
        digests[int(record["cell"])] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return digests


def invariant_failures(store: Path, spec) -> List[int]:
    """Cells that are missing or break a result invariant of the campaign."""
    from repro.exceptions import ExperimentError
    from repro.experiments.store import ResultStore

    try:
        opened = ResultStore.open(store)
    except ExperimentError:
        return [cell.index for cell in spec.cells()]
    try:
        records = {int(record["cell"]): record for record in opened.records()}
    finally:
        opened.close()
    failed = []
    for cell in spec.cells():
        record = records.get(cell.index)
        if record is None:
            failed.append(cell.index)
            continue
        m, ncom, wmin, processors, scenario, trial, heuristic = cell.key()
        makespan = record["makespan"]
        within_cap = makespan is not None and makespan <= spec.makespan_cap
        if (
            (record["m"], record["ncom"], record["wmin"], record["num_processors"])
            != (m, ncom, wmin, processors)
            or (record["scenario_index"], record["trial_index"]) != (scenario, trial)
            or record["heuristic"] != heuristic
            or record["success"] != within_cap
            or (record["success"] and record["completed_iterations"] != spec.iterations)
        ):
            failed.append(cell.index)
    return failed


class Checker:
    """Counts campaign cells checked (attempted) and wrong or missing (failed)."""

    def __init__(self, workload: Workload, seed: int, spec) -> None:
        self.spec = spec
        self.expected: Optional[List[str]] = None
        if seed == DEFAULT_SEED and DIGESTS_PATH.exists():
            self.expected = json.loads(DIGESTS_PATH.read_text())["workloads"].get(workload.name)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @property
    def mode(self) -> str:
        return "digests" if self.expected is not None else "invariants"

    def check(self, store: Path, twin: Optional[Dict[int, str]] = None) -> Dict[int, str]:
        """Check one finished store; *twin* is a store it must equal cell for cell."""
        cells = self.spec.num_cells()
        digests = store_digests(store)
        bad = set(invariant_failures(store, self.spec))
        if self.expected is not None:
            bad.update(i for i in range(cells) if digests.get(i) != self.expected[i])
        if twin is not None:
            bad.update(i for i in range(cells) if digests.get(i) != twin.get(i))
        self.attempted += cells
        self.failed += len(bad)
        if bad:
            self.problems.append(f"{store.name}: {len(bad)} bad cells, first {sorted(bad)[:5]}")
        return digests


def fidelity(store: Path) -> Dict[str, float]:
    """Ranking and beats-IE agreement with the paper's Table I, from a store."""
    from repro.experiments.metrics import summarize_results
    from repro.experiments.report import compare_with_paper
    from repro.experiments.store import ResultStore
    from repro.experiments.tables import PAPER_TABLE1

    opened = ResultStore.open(store)
    try:
        results = opened.results()
    finally:
        opened.close()
    comparison = compare_with_paper(summarize_results(results), PAPER_TABLE1)
    return {
        "fidelity.rank_corr": comparison.rank_correlation or 0.0,
        "fidelity.sign_agree": comparison.sign_agreement or 0.0,
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _warm_up(bench: Bench) -> None:
    """Compile bytecode and fill the page cache once, as any second user run finds them."""
    bench.spawn([sys.executable, "-c", "import repro.cli"])


def measure(bench: Bench, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    from repro.experiments.spec import load_spec

    spec_path = bench.path("spec").with_suffix(".json")
    spec_path.write_text(json.dumps(workload.spec(seed), indent=1))
    spec = load_spec(spec_path)
    checker = Checker(workload, seed, spec)
    _warm_up(bench)
    if trace:
        untraced = bench.repetition(workload, spec_path)
        reference = checker.check(untraced.store)
        serial = untraced
        if workload.jobs > 1:
            serial = bench.repetition(workload, spec_path, jobs=1)
            checker.check(serial.store, twin=reference)
        traced = bench.repetition(workload, spec_path, traced=True)
        checker.check(traced.store, twin=reference)
        metrics, restored = _trace_metrics(workload, untraced, serial, traced)
        if untraced.ok:
            metrics.update(fidelity(untraced.store))
        samples = {
            "untraced": _samples([untraced]),
            "untraced_jobs1": _samples([serial]),
            "traced": _samples([traced], setup=False),
        }
        correct = restored and untraced.ok and serial.ok and traced.ok
    else:
        half_store = bench.path("half")
        repetitions = _repeat(bench, workload, spec_path, seconds, half_store)
        reference = None
        for repetition in repetitions:
            reference = checker.check(repetition.store, twin=reference)
        setups = _setup_samples(bench, workload, spec_path, repetitions, half_store)
        slices = [value for item in bench.measured for value in item.slices]
        # Scale to the reference speed: the mean slice time is the run's
        # mean speed, since the campaign spends its time in both states.
        scale = REFERENCE_SLICE_S / statistics.fmean(slices) if slices else 1.0
        raw = {
            "wall_s": statistics.median(item.wall for item in repetitions),
            "setup_s": sum(statistics.median(values) for values in setups),
            "cpu_s": statistics.median(item.cpu for item in repetitions),
        }
        metrics = {name: value * scale for name, value in raw.items()}
        metrics["peak_rss_mb"] = statistics.median(item.rss_mb for item in repetitions)
        samples = _samples(repetitions)
        samples["setup_per_invocation"] = setups
        samples["unscaled"] = raw
        samples["speed_scale"] = scale
        samples["slices"] = len(slices)
        correct = all(item.ok for item in repetitions)
    correct = correct and checker.failed == 0
    return {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
        "report": {
            "workload": workload.name,
            "seed": seed,
            "trace": int(trace),
            "check": checker.mode,
            "problems": checker.problems,
            "samples": samples,
        },
    }


def _repeat(
    bench: Bench, workload: Workload, spec: Path, seconds: float, half_store: Path
) -> List[Repetition]:
    """Repeat the workload while the next repetition should end within *seconds*."""
    started = time.monotonic()
    repetitions = [bench.repetition(workload, spec, keep_first=half_store)]
    while len(repetitions) < MAX_REPETITIONS:
        elapsed = time.monotonic() - started
        if elapsed + repetitions[-1].wall > seconds:
            break
        repetitions.append(bench.repetition(workload, spec))
    return repetitions


def _setup_samples(
    bench: Bench, workload: Workload, spec: Path, repetitions: List[Repetition], half_store: Path
) -> List[List[float]]:
    """Set-up times per invocation: the repetitions' own, topped up by probes."""
    samples = []
    for index in range(len(workload.invocations())):
        values = [repetition.invocations[index].setup for repetition in repetitions]
        while len(values) < SETUP_SAMPLES:
            values.append(bench.setup_probe(workload, spec, half_store if index else None))
        samples.append(values)
    return samples


def _trace_metrics(
    workload: Workload, untraced: Repetition, serial: Repetition, traced: Repetition
):
    """Per-layer metrics of a traced repetition, against untraced references.

    *untraced* ran with the workload's own ``--jobs``; *serial* is the same
    untraced work with ``--jobs 1`` like the traced run (the same object
    when the workload is serial anyway), so the overhead compares like with
    like.  Returns the metrics and whether every shim was removed again.
    """
    ledgers = [item.ledger for item in traced.invocations]
    if any(ledger is None for ledger in ledgers):
        return {}, False
    snapshot = merge_snapshots([ledger["snapshot"] for ledger in ledgers])
    metrics = {
        "process.start.s": sum(ledger["launched"] - ledger["spawned"] for ledger in ledgers),
        "import.s": sum(ledger["import_s"] for ledger in ledgers),
    }
    metrics.update(layer_metrics(snapshot))
    metrics["process.exit.s"] = sum(
        item.spawned + item.wall - item.ledger["campaign_finished"]
        for item in traced.invocations
    )
    covered = (
        metrics["process.start.s"]
        + metrics["import.s"]
        + covered_seconds(snapshot)
        + metrics["process.exit.s"]
    )
    # Set-up is one busy process; the rest of the wall time has jobs of them.
    busy = workload.jobs * (untraced.wall - untraced.setup)
    metrics.update(
        {
            "fanout.busy_fraction": (untraced.cpu - untraced.setup) / busy if busy > 0 else 0.0,
            "memory.peak_rss_mb": traced.rss_mb,
            "trace.coverage": covered / traced.wall,
            "trace.unattributed_s": traced.wall - covered,
            "trace.overhead_pct": 100.0 * (traced.wall - serial.wall) / serial.wall,
        }
    )
    restored = all(ledger["restored"] and ledger["patches"] > 0 for ledger in ledgers)
    return metrics, restored


def _samples(repetitions: List[Repetition], setup: bool = True) -> dict:
    """Raw per-repetition values for the report (traced runs mark no set-up)."""
    samples = {
        "wall_s": [item.wall for item in repetitions],
        "cpu_s": [item.cpu for item in repetitions],
        "peak_rss_mb": [item.rss_mb for item in repetitions],
    }
    if setup:
        samples["setup_s"] = [item.setup for item in repetitions]
    return samples


# ----------------------------------------------------------------------
# Units and reports
# ----------------------------------------------------------------------
def _units() -> Dict[str, str]:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {item["name"]: item["unit"] for item in declared["end_to_end"]}
    units.update({item["name"]: item["unit"] for item in declared["per_layer"]})
    return units


def _machine(root: Path) -> dict:
    sys.path.insert(0, str(root / "benchmarks"))
    from bench_simulator import machine_fingerprint

    return {"nproc": len(os.sched_getaffinity(0)), "fingerprint": machine_fingerprint()}


def _with_units(metrics: Dict[str, float], units: Dict[str, str]) -> dict:
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def _write_digests(bench: Bench) -> None:
    from repro.experiments.spec import load_spec

    payload = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS.values():
        spec_path = bench.path("spec").with_suffix(".json")
        spec_path.write_text(json.dumps(workload.spec(DEFAULT_SEED)))
        repetition = bench.repetition(workload, spec_path)
        digests = store_digests(repetition.store)
        cells = load_spec(spec_path).num_cells()
        if not repetition.ok or len(digests) != cells:
            raise SystemExit(f"perfbench: {workload.name} did not complete; digests not written")
        payload["workloads"][workload.name] = [digests[index] for index in range(cells)]
    DIGESTS_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {DIGESTS_PATH}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests", action="store_true",
        help=f"re-record digests.json from seed {DEFAULT_SEED} (after an intended result change)",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    units = _units()
    machine = _machine(root)
    (root / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench"))
    try:
        if args.write_digests:
            _write_digests(Bench(root, scratch))
            return 0
        if args.workload != "all":
            result = measure(
                Bench(root, scratch),
                WORKLOADS[args.workload],
                args.seed,
                args.seconds,
                bool(args.trace),
            )
            print(json.dumps({"report": dict(result["report"], machine=machine)}))
            print(json.dumps({
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": _with_units(result["metrics"], units),
            }))
            return 0 if result["correct"] else 1
        return _print_all(root, scratch, args, units, machine)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _print_all(root: Path, scratch: Path, args, units: Dict[str, str], machine: dict) -> int:
    """Every metric of every workload, end-to-end then per-layer, as a table."""
    print(f"machine: nproc={machine['nproc']} {json.dumps(machine['fingerprint'])}")
    correct = True
    for workload in WORKLOADS.values():
        for trace in (False, True):
            result = measure(Bench(root, scratch), workload, args.seed, args.seconds, trace)
            correct = correct and result["correct"]
            print(
                f"\n{workload.name} (trace {int(trace)}, seed {args.seed}): "
                f"cells.failed={result['failed']} of cells.attempted={result['attempted']}, "
                f"correct={result['correct']}"
            )
            for name, value in result["metrics"].items():
                print(f"  {name:32s} {value:14.6g} {units[name]}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
