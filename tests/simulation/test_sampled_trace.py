"""Split independence of the one availability sampler.

A :class:`SampledTrace` samples exactly the slots a request reaches, so
solo engines (one request per window), the one-pass driver and the campaign
runner (windows shared by several engines) may split a realisation's
horizon differently.  The property below pins that the split never shows:
any sequence of contiguous requests concatenates to the states one
``block(0, H)`` request returns, on every availability substrate,
hazard-bearing ones included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability.generators import sample_initial_states, sample_state_block
from repro.availability.registry import model_factory_for
from repro.exceptions import SimulationError
from repro.experiments.scenarios import AvailabilitySpec
from repro.platform import PlatformSpec
from repro.platform.builders import availability_platform
from repro.simulation import SampledTrace
from repro.types import DOWN
from repro.utils.rng import run_entropy, worker_streams

HORIZON = 400

#: One entry per substrate family; the hazard rates are high enough that
#: the overlays act inside the horizon.
SUBSTRATES = [
    ("markov", {}),
    ("semi-markov", {}),
    ("diurnal", dict(day_length=48)),
    ("degradation", dict(wear_rate=0.05)),
    ("correlated", dict(domains=3, rate=0.01, mean_outage=10)),
    ("churn", dict(mean_present=100, mean_absent=40, present0=0.75)),
]


def fresh_platform(kind, params):
    """A fresh platform (own model objects) on the substrate."""
    spec = AvailabilitySpec(kind=kind, parameters=tuple(sorted(params.items())))
    return availability_platform(
        PlatformSpec(num_processors=8, ncom=4, wmin=1),
        num_tasks=4,
        seed=17,
        model_factory=model_factory_for(spec),
    )


def sampled_trace(kind, params, seed):
    return SampledTrace(fresh_platform(kind, params), seed, HORIZON)


@pytest.mark.parametrize("kind,params", SUBSTRATES, ids=[kind for kind, _ in SUBSTRATES])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    cuts=st.lists(st.integers(1, HORIZON - 1), max_size=8, unique=True),
)
def test_requests_concatenate_to_one_block(kind, params, seed, cuts):
    whole = sampled_trace(kind, params, seed).block(0, HORIZON)
    split = sampled_trace(kind, params, seed)
    bounds = [0] + sorted(cuts) + [HORIZON]
    pieces = [split.block(start, stop) for start, stop in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(pieces, axis=1), whole)
    # Re-reads serve the sampled states.
    assert np.array_equal(split.block(0, HORIZON), whole)


@pytest.mark.parametrize("kind", ["correlated", "churn"])
def test_hazard_overlay_acts_inside_the_horizon(kind):
    """The hazard cases above exercise the overlay, not just the base chains:
    the trace forces DOWN onto some slots of the raw worker chains."""
    params = dict(SUBSTRATES)[kind]
    overlaid = sampled_trace(kind, params, seed=3).block(0, HORIZON)
    platform = fresh_platform(kind, params)
    rngs = worker_streams(run_entropy(3), platform.num_processors)
    models = [processor.availability for processor in platform.processors]
    first = sample_initial_states(models, rngs)
    rest = sample_state_block(models, 1, HORIZON - 1, rngs, first)
    base = np.column_stack([first, rest])
    forced = overlaid != base
    assert forced.any()
    assert (overlaid[forced] == int(DOWN)).all()


def test_unreservable_horizon_is_a_typed_error():
    """The horizon is reserved up front: a cap no address space can hold
    (here 8 x 10**16 bytes) fails with a SimulationError, not a MemoryError."""
    platform = fresh_platform("markov", {})
    with pytest.raises(SimulationError, match="lower max_slots"):
        SampledTrace(platform, 0, 10**16)
