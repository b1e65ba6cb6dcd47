"""Tests for the AnalysisContext caching layer."""

import pytest

from repro.analysis import cache
from repro.analysis.cache import AnalysisContext
from repro.analysis.evaluation import evaluate_configuration
from repro.analysis.group import ExpectationMode
from repro.application import Configuration
from repro.availability.generators import paper_transition_matrix
from repro.availability.markov import MarkovAvailabilityModel
from repro.platform import Platform, Processor


@pytest.fixture
def platform():
    stays = [(0.96, 0.9, 0.9), (0.94, 0.92, 0.9), (0.91, 0.9, 0.93), (0.98, 0.95, 0.9)]
    processors = [
        Processor(
            speed=index + 1,
            capacity=4,
            availability=MarkovAvailabilityModel(paper_transition_matrix(list(stay))),
        )
        for index, stay in enumerate(stays)
    ]
    return Platform(processors, ncom=2, tprog=3, tdata=1)


class TestAnalysisContext:
    def test_worker_metadata(self, platform):
        context = AnalysisContext(platform)
        assert context.group.worker(2).speed == 3
        assert context.group.worker(3).capacity == 4

    def test_evaluate_matches_reference_implementation(self, platform):
        context = AnalysisContext(platform)
        config = Configuration({0: 2, 1: 1, 3: 1})
        cached = context.evaluate(config, has_program=[0], elapsed=4)
        reference = evaluate_configuration(
            context.group, platform, config, has_program=[0], elapsed=4
        )
        assert cached.success_probability == pytest.approx(reference.success_probability)
        assert cached.expected_time == pytest.approx(reference.expected_time)
        assert cached.elapsed == reference.elapsed == 4

    def test_evaluate_with_progress_matches_reference(self, platform):
        context = AnalysisContext(platform)
        config = Configuration({1: 2, 2: 1})
        cached = context.evaluate(
            config, comm_slots={1: 0, 2: 2}, completed_work=1, elapsed=9
        )
        reference = evaluate_configuration(
            context.group, platform, config, comm_slots={1: 0, 2: 2},
            completed_work=1, elapsed=9,
        )
        assert cached.expected_time == pytest.approx(reference.expected_time)
        assert cached.workload == reference.workload

    def test_communication_cache_hit(self, platform):
        context = AnalysisContext(platform)
        first = context.communication({0: 3, 1: 2})
        second = context.communication({1: 2, 0: 3})
        assert first is second
        stats = context.cache_stats()
        assert stats["communication_keys"] == 1

    def test_single_expected_time_cached_and_consistent(self, platform):
        context = AnalysisContext(platform)
        value = context.single_expected_time(0, 5)
        again = context.single_expected_time(0, 5)
        assert value == again
        expected = context.group.quantities((0,)).expected_time(5, context.mode)
        assert value == pytest.approx(expected)
        assert context.single_expected_time(0, 0) == 0.0

    def test_comm_survival_is_the_product_of_no_down_probabilities(self, platform):
        context = AnalysisContext(platform)
        workers = frozenset({3, 1})
        value = context.comm_survival(workers, 4)
        expected = context.group.worker(1).no_down_probability(4)
        expected *= context.group.worker(3).no_down_probability(4)
        assert value == expected
        assert context.survival_cache[(workers, 4)] == value
        assert context.comm_survival(workers, 4) == value

    def test_clear_caches(self, platform):
        context = AnalysisContext(platform)
        context.evaluate(Configuration({0: 1, 1: 1}))
        context.single_expected_time(0, 3)
        assert context.cache_stats()["group_sets"] > 0
        context.clear_caches()
        stats = context.cache_stats()
        assert stats["group_sets"] == 0
        assert stats["communication_keys"] == 0

    def test_mode_is_used(self, platform):
        paper = AnalysisContext(platform, mode=ExpectationMode.PAPER)
        renewal = AnalysisContext(platform, mode=ExpectationMode.RENEWAL)
        config = Configuration({0: 2, 2: 2})
        assert renewal.evaluate(config).expected_time <= paper.evaluate(config).expected_time + 1e-9

    def test_mode_change_drops_stale_memos(self, platform):
        # The computation/communication memos cache mode-dependent values;
        # switching estimators mid-life must not replay them.
        context = AnalysisContext(platform, mode=ExpectationMode.PAPER)
        config = Configuration({0: 2, 2: 2})
        paper_estimate = context.evaluate(config)
        context.mode = ExpectationMode.RENEWAL
        renewal_estimate = context.evaluate(config)
        fresh = AnalysisContext(platform, mode=ExpectationMode.RENEWAL)
        assert renewal_estimate.computation_time == fresh.evaluate(config).computation_time
        assert renewal_estimate.computation_time != paper_estimate.computation_time


class SpanRecorder:
    """Tracer stand-in that keeps the name and counters of each accumulated span."""

    def __init__(self):
        self.spans = []

    def accumulate(self, name, begin, *, counters=None, **attrs):
        self.spans.append((name, dict(counters or {})))


def estimate_pair(estimate):
    return (estimate.success_probability, estimate.expected_time)


class TestSwitchPairs:
    """The proactive switch test's pairs and the shared table of candidate pairs."""

    CURRENT = Configuration({2: 3, 3: 1})
    CANDIDATES = [
        Configuration({0: 2, 1: 2}),
        Configuration({0: 1, 1: 1, 3: 2}),
        Configuration({1: 4}),
        Configuration({0: 4}),
        Configuration({0: 3, 3: 1}),
    ]

    def test_pairs_equal_the_evaluate_estimates(self, platform):
        context = AnalysisContext(platform)
        comm_remaining = {3: 1, 2: 2}
        for holders in (frozenset(), frozenset({0, 3})):
            for candidate in self.CANDIDATES:
                current_pair, candidate_pair = context.switch_pairs(
                    self.CURRENT, comm_remaining, 0, candidate, holders
                )
                fresh = AnalysisContext(platform)
                assert current_pair == estimate_pair(
                    fresh.evaluate(self.CURRENT, comm_slots=comm_remaining)
                )
                assert candidate_pair == estimate_pair(
                    fresh.evaluate(candidate, has_program=holders)
                )
        # Progress shortens the current configuration's remaining workload.
        current_pair, _ = context.switch_pairs(
            self.CURRENT, {2: 0, 3: 0}, 5, self.CANDIDATES[0], frozenset()
        )
        assert current_pair == estimate_pair(
            context.evaluate(self.CURRENT, comm_slots={2: 0, 3: 0}, completed_work=5)
        )

    def test_candidate_pair_is_kept_per_candidate_and_holders(self, platform):
        context = AnalysisContext(platform)
        context.tracer = recorder = SpanRecorder()
        candidate = self.CANDIDATES[1]
        first = context.switch_pairs(self.CURRENT, {2: 4, 3: 2}, 0, candidate, frozenset({3}))
        # Another current configuration, progress and holder-set type: the
        # same (candidate, holders) key, answered from the table.
        again = context.switch_pairs(Configuration({1: 4}), {1: 0}, 2, candidate, [3])
        assert again[1] is first[1]
        other = context.switch_pairs(self.CURRENT, {2: 4, 3: 2}, 0, candidate, frozenset())
        assert other[1] != first[1]
        assert context.cache_stats()["candidate_pairs"] == 2
        assert recorder.spans == [
            ("analysis.switch_pairs", {"requests": 2, "hits": 0}),
            ("analysis.switch_pairs", {"requests": 2, "hits": 1}),
            ("analysis.switch_pairs", {"requests": 2, "hits": 0}),
        ]

    def test_candidate_table_is_bounded(self, platform, monkeypatch):
        monkeypatch.setattr(cache, "CANDIDATE_PAIR_LIMIT", 3)
        context = AnalysisContext(platform)
        fresh = AnalysisContext(platform)
        for _ in range(3):
            for holders in (frozenset(), frozenset({1})):
                for candidate in self.CANDIDATES:
                    _, pair = context.switch_pairs(self.CURRENT, {2: 1}, 0, candidate, holders)
                    assert pair == estimate_pair(fresh.evaluate(candidate, has_program=holders))
                    # The table is emptied when full, before it takes a new pair.
                    assert context.cache_stats()["candidate_pairs"] <= 3

    def test_mode_change_never_replays_a_stale_pair(self, platform):
        context = AnalysisContext(platform, mode=ExpectationMode.PAPER)
        candidate = self.CANDIDATES[0]
        _, paper_pair = context.switch_pairs(self.CURRENT, {2: 1}, 0, candidate, frozenset())
        context.mode = ExpectationMode.RENEWAL
        assert context.cache_stats()["candidate_pairs"] == 0
        _, renewal_pair = context.switch_pairs(self.CURRENT, {2: 1}, 0, candidate, frozenset())
        fresh = AnalysisContext(platform, mode=ExpectationMode.RENEWAL)
        assert renewal_pair == estimate_pair(fresh.evaluate(candidate))
        assert renewal_pair != paper_pair

    def test_cleared_context_never_replays_a_stale_pair(self, platform):
        context = AnalysisContext(platform)
        candidate = self.CANDIDATES[2]
        _, pair = context.switch_pairs(self.CURRENT, {2: 1}, 0, candidate, frozenset())
        # Poison the stored pair: a cleared context must compute it afresh.
        context._candidate_pairs[candidate, frozenset()] = (-1.0, -1.0)
        context.clear_caches()
        assert context.cache_stats()["candidate_pairs"] == 0
        assert context.switch_pairs(self.CURRENT, {2: 1}, 0, candidate, frozenset())[1] == pair
