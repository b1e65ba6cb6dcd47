"""Differential tests of the engine's span-scan primitives.

Every primitive in :mod:`repro.simulation.kernels` is checked against a
dumb slot-by-slot reference on randomized blocks.  The *public* names
(``frozen_span`` & co.) are bound to the numba-compiled variants when numba
is importable and to the NumPy implementations otherwise, so running this
suite in both environments (the CI matrix sets ``REPRO_NO_NUMBA=1`` in one
lane) covers both backends; the private NumPy/loop twins are additionally
compared against each other directly so the non-active variant is exercised
everywhere.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.simulation.kernels import (
    HAVE_NUMBA,
    NUMBA_DISABLED_BY_ENV,
    BlockData,
    _comm_phase_span_loop,
    _comm_phase_span_numpy,
    _compute_span_loop,
    _compute_span_numpy,
    _frozen_span_loop,
    _frozen_span_numpy,
    block_companions,
    comm_phase_span,
    compute_span,
    frozen_span,
    kernel_backend,
    next_change_table,
)

UP, RECLAIMED, DOWN = 0, 1, 2


def random_block(rng, num_workers, length, p_down=0.2):
    """A random state block with realistic dwell (runs of equal states)."""
    block = np.empty((num_workers, length), dtype=np.int8)
    for q in range(num_workers):
        col = 0
        while col < length:
            state = rng.choice([UP, UP, RECLAIMED, DOWN], p=None)
            if state == DOWN and rng.random() > p_down:
                state = UP
            run = int(rng.integers(1, 6))
            block[q, col : col + run] = state
            col += run
    return block


def brute_next_change(block):
    num_workers, length = block.shape
    table = np.full((num_workers, length), length, dtype=np.int32)
    for q in range(num_workers):
        for j in range(length):
            for k in range(j + 1, length):
                if block[q, k] != block[q, j]:
                    table[q, j] = k
                    break
    return table


def brute_compute_span(block, enrolled, rel, length, needed):
    needed_eff = max(needed, 1)
    advance = progressed = 0
    for col in range(rel + 1, length):
        states = block[enrolled, col]
        if (states == DOWN).any():
            break
        if (states == UP).all():
            if progressed + 1 >= needed_eff:
                break  # the completing slot is left to the per-slot path
            progressed += 1
        advance += 1
    return advance, progressed


def brute_comm_phase(block, enrolled, needs, rel, length):
    """Slot-by-slot surplus-capacity policy: every needing UP worker served."""
    count = len(enrolled)
    units = np.zeros(count, dtype=np.int64)
    holders = np.zeros(count, dtype=bool)
    advance = 0
    for col in range(rel, length):
        states = block[enrolled, col]
        if (states == DOWN).any():
            break
        holders[:] = False
        serve = (states == UP) & (units < needs)
        units[serve] += 1
        holders[serve] = True
        advance += 1
        if (units >= needs).all():
            break
    return advance, units, holders


@pytest.mark.parametrize("seed", range(6))
def test_next_change_table_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    block = random_block(rng, num_workers=5, length=40)
    assert np.array_equal(next_change_table(block), brute_next_change(block))


def test_block_companions_matches_brute_force():
    rng = np.random.default_rng(7)
    block = random_block(rng, num_workers=4, length=30)
    for last_column in (None, block[:, 0].copy(), np.full(4, DOWN, dtype=np.int8)):
        down, same = block_companions(block, last_column)
        for j in range(block.shape[1]):
            assert down[j] == (block[:, j] == DOWN).any()
            if j == 0:
                expected = last_column is not None and np.array_equal(
                    block[:, 0], last_column
                )
            else:
                expected = np.array_equal(block[:, j], block[:, j - 1])
            assert same[j] == expected, j


@pytest.mark.parametrize("seed", range(8))
def test_frozen_span_variants_agree_with_brute_force(seed):
    rng = np.random.default_rng(100 + seed)
    block = random_block(rng, num_workers=6, length=50)
    table = next_change_table(block)
    length = block.shape[1]
    for _ in range(20):
        size = int(rng.integers(0, 5))
        enrolled = np.sort(rng.choice(6, size=size, replace=False)).astype(np.int64)
        rel = int(rng.integers(0, length))
        span = 0
        while rel + span + 1 < length and all(
            block[q, rel + span + 1] == block[q, rel] for q in enrolled
        ):
            span += 1
        if enrolled.size == 0:
            span = length - rel - 1
        assert frozen_span(table, enrolled, rel) == span
        assert _frozen_span_numpy(table, enrolled, rel) == span
        assert _frozen_span_loop(table, enrolled, rel) == span


@pytest.mark.parametrize("seed", range(8))
def test_compute_span_variants_agree_with_brute_force(seed):
    rng = np.random.default_rng(200 + seed)
    block = np.ascontiguousarray(random_block(rng, num_workers=6, length=700))
    length = block.shape[1]
    for _ in range(15):
        size = int(rng.integers(1, 5))
        enrolled = np.sort(rng.choice(6, size=size, replace=False)).astype(np.int64)
        rel = int(rng.integers(0, length))
        needed = int(rng.integers(1, 8))
        expected = brute_compute_span(block, enrolled, rel, length, needed)
        assert compute_span(block, enrolled, rel, length, needed) == expected
        assert _compute_span_numpy(block, enrolled, rel, length, needed) == expected
        assert _compute_span_loop(block, enrolled, rel, length, needed) == expected


@pytest.mark.parametrize("seed", range(8))
def test_comm_phase_span_variants_agree_with_brute_force(seed):
    rng = np.random.default_rng(300 + seed)
    block = np.ascontiguousarray(random_block(rng, num_workers=6, length=200))
    length = block.shape[1]
    for _ in range(15):
        size = int(rng.integers(1, 5))
        enrolled = np.sort(rng.choice(6, size=size, replace=False)).astype(np.int64)
        rel = int(rng.integers(0, length))
        # The engine only calls this on a column without enrolled failures.
        block[enrolled, rel] = np.where(
            block[enrolled, rel] == DOWN, UP, block[enrolled, rel]
        )
        needs = rng.integers(0, 6, size=size).astype(np.int64)
        if not needs.any():
            needs[0] = 1
        expected = brute_comm_phase(block, enrolled, needs, rel, length)
        for variant in (comm_phase_span, _comm_phase_span_numpy, _comm_phase_span_loop):
            advance, units, holders = variant(block, enrolled, needs, rel, length)
            assert advance == expected[0], variant
            assert np.array_equal(units, expected[1]), variant
            assert np.array_equal(holders, expected[2]), variant


def test_block_data_builds_next_change_once():
    rng = np.random.default_rng(9)
    block = random_block(rng, num_workers=3, length=20)
    data = BlockData(block, None)
    table = data.ensure_next_change()
    assert data.ensure_next_change() is table
    assert np.array_equal(table, next_change_table(block))
    assert data.length == 20


def test_kernel_backend_name_is_consistent():
    assert kernel_backend() == ("numba" if HAVE_NUMBA else "numpy")
    if NUMBA_DISABLED_BY_ENV:
        assert not HAVE_NUMBA


SUBPROCESS_RUN = """
import json
from repro.analysis.cache import AnalysisContext
from repro.application import Application
from repro.platform import PlatformSpec, paper_platform
from repro.scheduling import create_scheduler
from repro.simulation import SimulationEngine, kernel_backend

platform = paper_platform(PlatformSpec(num_processors=10, ncom=5, wmin=2),
                          num_tasks=5, seed=11)
engine = SimulationEngine(
    platform, Application(tasks_per_iteration=5, iterations=5),
    create_scheduler("IE"), seed=42, max_slots=20_000,
    analysis=AnalysisContext(platform),
)
result = engine.run()
print(json.dumps({
    "backend": kernel_backend(),
    "makespan": result.makespan,
    "restarts": result.total_restarts,
    "communication_slots": result.communication_slots,
    "computation_slots": result.computation_slots,
}))
"""


def _run_reference_case(*, no_numba):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if no_numba:
        env["REPRO_NO_NUMBA"] = "1"
    else:
        env.pop("REPRO_NO_NUMBA", None)
    output = subprocess.run(
        [sys.executable, "-c", SUBPROCESS_RUN],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(output.stdout)


def test_repro_no_numba_forces_numpy_backend_same_results():
    """REPRO_NO_NUMBA=1 switches the backend without changing any result."""
    forced = _run_reference_case(no_numba=True)
    assert forced.pop("backend") == "numpy"
    default = _run_reference_case(no_numba=False)
    default.pop("backend")  # "numba" when installed, "numpy" otherwise
    assert default == forced
