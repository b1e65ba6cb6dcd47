"""Property tests for the proactive anti-divergence constraint (Section VI-B).

The paper requires that a proactive switching criterion never rate a running
configuration *worse* as it accumulates progress — otherwise the scheduler
could oscillate between configurations forever.  For the three admitted
criteria this means, for a fixed configuration evaluated at a fixed instant:

* **P** — the probability of completing the *remaining* work is non-decreasing
  in the completed work;
* **E** — the expected *remaining* time is non-increasing in the completed
  work and in the already-performed communication;
* **Y** — the yield is non-decreasing when progress is made while the
  iteration clock advances by the corresponding amount.

These are exactly the monotonicity facts the proactive implementation relies
on, so they are checked here property-style over random paper platforms.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cache import AnalysisContext
from repro.analysis.criteria import get_criterion
from repro.application import Configuration
from repro.platform import PlatformSpec, paper_platform


YIELD = get_criterion("Y")


def make_context(seed: int) -> AnalysisContext:
    platform = paper_platform(
        PlatformSpec(num_processors=6, ncom=3, wmin=2), num_tasks=5, seed=seed
    )
    return AnalysisContext(platform)


def make_configuration(context: AnalysisContext, seed: int) -> Configuration:
    rng = np.random.default_rng(seed)
    workers = rng.choice(context.platform.num_processors, size=3, replace=False)
    return Configuration({int(workers[0]): 2, int(workers[1]): 2, int(workers[2]): 1})


class TestAntiDivergenceMonotonicity:
    @given(seed=st.integers(0, 50), progress=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_probability_never_decreases_with_progress(self, seed, progress):
        context = make_context(seed % 7)
        configuration = make_configuration(context, seed)
        comm_done = {worker: 0 for worker in configuration.workers}
        before = context.evaluate(
            configuration, comm_slots=comm_done, completed_work=progress
        )
        after = context.evaluate(
            configuration, comm_slots=comm_done, completed_work=progress + 1
        )
        assert after.success_probability >= before.success_probability - 1e-12

    @given(seed=st.integers(0, 50), progress=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_expected_remaining_time_never_increases_with_progress(self, seed, progress):
        context = make_context(seed % 7)
        configuration = make_configuration(context, seed)
        comm_done = {worker: 0 for worker in configuration.workers}
        before = context.evaluate(
            configuration, comm_slots=comm_done, completed_work=progress
        )
        after = context.evaluate(
            configuration, comm_slots=comm_done, completed_work=progress + 1
        )
        assert after.expected_time <= before.expected_time + 1e-9

    @given(seed=st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_remaining_communication_only_shrinks_expected_time(self, seed):
        context = make_context(seed % 7)
        configuration = make_configuration(context, seed)
        full = configuration.communication_slots(context.platform)
        partially_done = {worker: max(slots - 2, 0) for worker, slots in full.items()}
        before = context.evaluate(configuration, comm_slots=full)
        after = context.evaluate(configuration, comm_slots=partially_done)
        assert after.expected_time <= before.expected_time + 1e-9
        assert after.success_probability >= before.success_probability - 1e-12

    @given(seed=st.integers(0, 50), elapsed=st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_yield_improves_when_a_compute_slot_succeeds(self, seed, elapsed):
        """One more completed slot (and one more elapsed slot) never hurts the yield."""
        context = make_context(seed % 7)
        configuration = make_configuration(context, seed)
        comm_done = {worker: 0 for worker in configuration.workers}
        before = context.evaluate(
            configuration, comm_slots=comm_done, completed_work=0, elapsed=elapsed
        )
        after = context.evaluate(
            configuration, comm_slots=comm_done, completed_work=1, elapsed=elapsed + 1
        )
        assert YIELD.value(after) >= YIELD.value(before) - 1e-12
