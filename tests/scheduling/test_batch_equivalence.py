"""Differential tests: the memoised hot paths vs the per-candidate oracle.

The heuristics route their hot loops through `IncrementalAllocator` (with
its greedy-path tree) and `AnalysisContext.evaluate_batch`; the plain
per-candidate loop is kept in the tests as `ScalarAllocator`.  Fixed seed
⇒ the two must select *identical* configurations and produce *identical*
simulation results — not approximately equal ones.  These tests pin that
guarantee at three levels: single allocations, per-slot proactive
decisions, and whole simulated runs.
"""

import numpy as np
import pytest

import repro.scheduling.passive
from repro.analysis.cache import AnalysisContext, EvaluationRequest
from repro.analysis.criteria import PROACTIVE_CRITERIA, get_criterion
from repro.analysis.group import ExpectationMode
from repro.application import Application, Configuration
from repro.platform import PlatformSpec, paper_platform
from repro.scheduling.allocation import IncrementalAllocator
from repro.scheduling.passive import PASSIVE_CRITERION_BY_NAME, make_passive_heuristic
from repro.scheduling.proactive import ProactiveHeuristic
from repro.simulation import SimulationEngine

from tests.scheduling.scalar_allocator import ScalarAllocator


def make_platform(num_processors=12, ncom=4, wmin=2, seed=29, num_tasks=6):
    return paper_platform(
        PlatformSpec(num_processors=num_processors, ncom=ncom, wmin=wmin),
        num_tasks=num_tasks,
        seed=seed,
    )


class TestAllocatorEquivalence:
    @pytest.mark.parametrize("mode", list(ExpectationMode))
    @pytest.mark.parametrize("criterion_name", ["P", "E", "Y", "AY"])
    def test_identical_allocations_under_random_observations(self, criterion_name, mode):
        platform = make_platform()
        criterion = get_criterion(criterion_name)
        scalar_context = AnalysisContext(platform, mode=mode)
        scalar = ScalarAllocator(criterion, scalar_context, platform, num_tasks=6)
        tree_context = AnalysisContext(platform, mode=mode)
        tree = IncrementalAllocator(criterion, tree_context, platform, num_tasks=6)
        rng = np.random.default_rng(123)
        for trial in range(40):
            up = sorted(
                int(w)
                for w in rng.choice(12, size=int(rng.integers(3, 13)), replace=False)
            )
            program = [int(w) for w in up if rng.random() < 0.4]
            if rng.random() < 0.5:
                received = {
                    int(w): int(rng.integers(1, 3)) for w in up if rng.random() < 0.3
                }
            else:
                received = None
            elapsed = int(rng.integers(0, 50))
            reference = scalar.allocate(
                up, has_program=program, received_data=received, elapsed=elapsed
            )
            candidate = tree.allocate(
                up, has_program=program, received_data=received, elapsed=elapsed
            )
            assert reference == candidate, (
                f"trial {trial}: scalar {reference} != tree {candidate} "
                f"(criterion {criterion_name}, up={up})"
            )

    def test_infeasible_allocations_agree(self):
        platform = make_platform()
        context = AnalysisContext(platform)
        scalar = ScalarAllocator(get_criterion("E"), context, platform, num_tasks=6)
        tree = IncrementalAllocator(get_criterion("E"), context, platform, num_tasks=6)
        assert scalar.allocate([]) is None is tree.allocate([])
        # One worker cannot hold six tasks on a capacity-1 platform cell.
        capacities = sum(platform.processor(q).capacity for q in range(1))
        if capacities < 6:
            assert scalar.allocate([0]) is None is tree.allocate([0])


class TestEvaluateBatchEquivalence:
    def test_matches_scalar_evaluate(self):
        platform = make_platform()
        scalar_context = AnalysisContext(platform)
        batched_context = AnalysisContext(platform)
        configurations = [
            Configuration({0: 2, 3: 1, 5: 3}),
            Configuration({1: 1}),
            Configuration.empty(),
        ]
        requests = [
            EvaluationRequest(
                configurations[0], has_program=[0, 5], elapsed=4
            ),
            EvaluationRequest(
                configurations[1],
                comm_slots={1: 7},
                completed_work=1,
                elapsed=9,
            ),
            EvaluationRequest(configurations[2]),
        ]
        batch = batched_context.evaluate_batch(requests)
        singles = [
            scalar_context.evaluate(
                configurations[0], has_program=[0, 5], elapsed=4
            ),
            scalar_context.evaluate(
                configurations[1], comm_slots={1: 7}, completed_work=1, elapsed=9
            ),
            scalar_context.evaluate(configurations[2]),
        ]
        for one, many in zip(singles, batch):
            assert one.success_probability == many.success_probability
            assert one.expected_time == many.expected_time
            assert one.workload == many.workload
            assert one.elapsed == many.elapsed

    def test_memoisation_keyed_on_set_and_workload(self):
        platform = make_platform()
        context = AnalysisContext(platform)
        configuration = Configuration({0: 2, 3: 1})
        context.evaluate_batch([EvaluationRequest(configuration)])
        stats = context.cache_stats()
        assert stats["computation_keys"] == 1
        # Same set, same workload: no new key.  Different remaining workload
        # (progress made): one new key.
        context.evaluate_batch(
            [EvaluationRequest(configuration, completed_work=1)]
        )
        assert context.cache_stats()["computation_keys"] == 2


def run_simulation(scheduler, *, seed, max_slots=4000):
    platform = make_platform(num_processors=10, ncom=3, wmin=1, seed=31, num_tasks=4)
    application = Application(tasks_per_iteration=4, iterations=12)
    analysis = AnalysisContext(platform)
    engine = SimulationEngine(
        platform,
        application,
        scheduler,
        seed=seed,
        max_slots=max_slots,
        analysis=analysis,
    )
    return engine.run()


def run_with_both_allocators(build_scheduler, *, seed, monkeypatch):
    """The run with the default allocator, then with the scalar oracle."""
    candidate = run_simulation(build_scheduler(), seed=seed)
    with monkeypatch.context() as patch:
        patch.setattr(repro.scheduling.passive, "IncrementalAllocator", ScalarAllocator)
        reference = run_simulation(build_scheduler(), seed=seed)
    return reference, candidate


def proactive_factory(criterion_name, passive_name):
    def build():
        return ProactiveHeuristic(
            get_criterion(criterion_name), make_passive_heuristic(passive_name)
        )

    return build


class TestSimulationEquivalence:
    @pytest.mark.parametrize("name", sorted(PASSIVE_CRITERION_BY_NAME))
    def test_passive_runs_identical(self, name, monkeypatch):
        for seed in (1, 7):
            reference, candidate = run_with_both_allocators(
                lambda: make_passive_heuristic(name), seed=seed, monkeypatch=monkeypatch
            )
            assert reference == candidate

    @pytest.mark.parametrize("criterion_name", PROACTIVE_CRITERIA)
    def test_proactive_runs_identical(self, criterion_name, monkeypatch):
        for passive_name in ("IE", "IY"):
            reference, candidate = run_with_both_allocators(
                proactive_factory(criterion_name, passive_name), seed=5, monkeypatch=monkeypatch
            )
            assert reference == candidate

    def test_oracle_is_swapped_in(self, monkeypatch):
        """The whole-run comparison really runs the scalar loop."""
        monkeypatch.setattr(repro.scheduling.passive, "IncrementalAllocator", ScalarAllocator)
        platform = make_platform()
        scheduler = make_passive_heuristic("IE")
        scheduler.bind(
            platform,
            Application(tasks_per_iteration=4, iterations=1),
            AnalysisContext(platform),
            np.random.default_rng(0),
        )
        assert type(scheduler._allocator) is ScalarAllocator
