"""Tests for worker configurations (task allocation value objects)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.application import Configuration
from repro.availability import MarkovAvailabilityModel
from repro.exceptions import InvalidConfigurationError
from repro.platform import Platform, Processor


@pytest.fixture
def platform():
    processors = [
        Processor(speed=s, capacity=c, availability=MarkovAvailabilityModel.always_up())
        for s, c in [(1, 5), (2, 5), (3, 2), (4, 1)]
    ]
    return Platform(processors, ncom=2, tprog=2, tdata=1)


class TestConstruction:
    def test_basic(self):
        config = Configuration({0: 2, 3: 1})
        assert config.workers == (0, 3)
        assert config.tasks_on(0) == 2
        assert config.tasks_on(1) == 0
        assert config.total_tasks() == 3

    def test_zero_entries_dropped(self):
        config = Configuration({0: 0, 1: 2})
        assert 0 not in config
        assert 1 in config

    def test_negative_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            Configuration({0: -1})

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            Configuration({0: 1.5})

    def test_negative_worker_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            Configuration({-1: 1})

    def test_empty(self):
        assert Configuration.empty().is_empty()
        assert Configuration.empty().total_tasks() == 0

    def test_bool_task_count_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            Configuration({0: True})

    def test_integral_float_task_count_accepted(self):
        config = Configuration({0: 2.0})
        assert config.tasks_on(0) == 2
        assert isinstance(config.tasks_on(0), int)

    def test_numpy_integer_ids_and_counts(self):
        config = Configuration({np.int64(3): np.int64(2)})
        assert config.workers == (3,)
        assert config.tasks_on(np.int64(3)) == 2
        assert np.int64(3) in config


class TestDerivedQuantities:
    def test_workload_is_max_load(self, platform):
        config = Configuration({0: 3, 1: 2, 2: 1})
        # loads: 3*1=3, 2*2=4, 1*3=3 -> W = 4
        assert config.workload(platform) == 4

    def test_workload_empty(self, platform):
        assert Configuration.empty().workload(platform) == 0

    def test_communication_slots_fresh(self, platform):
        config = Configuration({0: 2, 1: 1})
        slots = config.communication_slots(platform)
        # Tprog=2, Tdata=1: worker 0 -> 2 + 2, worker 1 -> 2 + 1.
        assert slots == {0: 4, 1: 3}

    def test_communication_slots_with_program_and_data(self, platform):
        config = Configuration({0: 2, 1: 1})
        slots = config.communication_slots(
            platform, has_program=[0], received_data={0: 1, 1: 5}
        )
        # Worker 0: program already there, 1 of 2 data messages left -> 1 slot.
        # Worker 1: needs program, data capped at its 1 task -> 2 + 0 = 2.
        assert slots == {0: 1, 1: 2}

    def test_communication_slots_empty(self, platform):
        assert Configuration.empty().communication_slots(platform) == {}

    def test_communication_slots_all_data_received(self, platform):
        config = Configuration({0: 2, 1: 1})
        slots = config.communication_slots(platform, received_data={0: 2, 1: 1})
        # Only the program (Tprog=2) is left to send.
        assert slots == {0: 2, 1: 2}


class TestValueSemantics:
    def test_equality_and_hash(self):
        a = Configuration({0: 1, 2: 2})
        b = Configuration({2: 2, 0: 1})
        assert a == b
        assert hash(a) == hash(b)
        assert a != Configuration({0: 1})

    def test_to_dict_uses_string_keys(self):
        assert Configuration({4: 2, 0: 1}).to_dict() == {"0": 1, "4": 2}

    def test_allocation_is_a_copy(self):
        config = Configuration({0: 1})
        config.allocation[0] = 5
        assert config.tasks_on(0) == 1

    def test_not_equal_to_other_types(self):
        config = Configuration({0: 1})
        assert config != {0: 1}
        assert config.__eq__({0: 1}) is NotImplemented

    def test_iteration_and_items(self):
        config = Configuration({3: 1, 1: 2})
        assert list(config) == [1, 3]
        assert dict(config.items()) == {1: 2, 3: 1}


class TestPropertyBased:
    @given(
        allocation=st.dictionaries(
            keys=st.integers(min_value=0, max_value=15),
            values=st.integers(min_value=0, max_value=5),
            max_size=10,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_total_tasks_matches_sum_of_positive_entries(self, allocation):
        config = Configuration(allocation)
        assert config.total_tasks() == sum(v for v in allocation.values() if v > 0)
        assert all(config.tasks_on(w) > 0 for w in config.workers)

    @given(
        allocation=st.dictionaries(
            keys=st.integers(min_value=0, max_value=3),
            values=st.integers(min_value=1, max_value=5),
            max_size=4,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_workload_is_max_of_tasks_times_speed(self, allocation):
        processors = [
            Processor(speed=s, capacity=5, availability=MarkovAvailabilityModel.always_up())
            for s in (1, 2, 3, 4)
        ]
        platform = Platform(processors, ncom=1, tprog=0, tdata=1)
        expected = max((tasks * (w + 1) for w, tasks in allocation.items()), default=0)
        assert Configuration(allocation).workload(platform) == expected
