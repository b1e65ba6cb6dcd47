"""Tests for the Platform model (bounded multi-port master, transfer times)."""
import pytest

from repro.availability import MarkovAvailabilityModel, TraceAvailabilityModel
from repro.exceptions import InvalidPlatformError
from repro.platform import Platform, Processor


class StubHazard:
    """The least a platform-level hazard must provide."""

    def reset(self):
        pass

    def overlay(self, *args):
        pass

    def describe(self):
        return "stub-hazard"


def make_processors(count=3, speed=1, capacity=2):
    return [
        Processor(speed=speed, capacity=capacity, availability=MarkovAvailabilityModel.always_up())
        for _ in range(count)
    ]


class TestConstruction:
    def test_basic(self):
        platform = Platform(make_processors(3), ncom=2, tprog=5, tdata=1)
        assert platform.num_processors == 3
        assert platform.ncom == 2
        assert platform.tprog == 5
        assert platform.tdata == 1
        assert len(platform) == 3

    def test_names_assigned(self):
        platform = Platform(make_processors(2), ncom=1, tprog=0, tdata=0)
        assert [p.name for p in platform] == ["P1", "P2"]

    def test_given_names_kept(self):
        named = Processor(
            speed=1, capacity=1, availability=MarkovAvailabilityModel.always_up(), name="alpha"
        )
        platform = Platform([named] + make_processors(1), ncom=1, tprog=0, tdata=0)
        assert [p.name for p in platform] == ["alpha", "P2"]

    def test_hazard_without_protocol_rejected(self):
        with pytest.raises(InvalidPlatformError, match="reset"):
            Platform(make_processors(1), ncom=1, tprog=0, tdata=0, hazard=object())

    def test_empty_rejected(self):
        with pytest.raises(InvalidPlatformError):
            Platform([], ncom=1, tprog=0, tdata=0)

    @pytest.mark.parametrize("kwargs", [
        {"ncom": 0, "tprog": 0, "tdata": 0},
        {"ncom": 1, "tprog": -1, "tdata": 0},
        {"ncom": 1, "tprog": 0, "tdata": -2},
        {"ncom": 1.5, "tprog": 0, "tdata": 0},
        {"ncom": 1, "tprog": 0.5, "tdata": 0},
        {"ncom": 1, "tprog": 0, "tdata": 1.5},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidPlatformError):
            Platform(make_processors(1), **kwargs)


class TestAccessors:
    def test_capacities(self):
        processors = [
            Processor(speed=s, capacity=c, availability=MarkovAvailabilityModel.always_up())
            for s, c in [(1, 1), (2, 3), (5, 2)]
        ]
        platform = Platform(processors, ncom=1, tprog=0, tdata=0)
        assert platform.capacities().tolist() == [1, 3, 2]
        assert platform.total_capacity() == 6

    def test_can_execute_and_validate(self):
        platform = Platform(make_processors(2, capacity=2), ncom=1, tprog=0, tdata=0)
        assert platform.can_execute(4)
        assert not platform.can_execute(5)
        platform.validate_for_tasks(4)
        with pytest.raises(InvalidPlatformError):
            platform.validate_for_tasks(5)

    def test_communication_slots(self):
        platform = Platform(make_processors(1), ncom=1, tprog=5, tdata=2)
        assert platform.communication_slots(3, needs_program=True) == 11
        assert platform.communication_slots(3, needs_program=False) == 6
        assert platform.communication_slots(0, needs_program=False) == 0
        with pytest.raises(ValueError):
            platform.communication_slots(-1, needs_program=True)

    def test_markov_models_from_trace_availability(self):
        trace_proc = Processor(
            speed=1, capacity=1, availability=TraceAvailabilityModel("uuur" * 10)
        )
        platform = Platform([trace_proc], ncom=1, tprog=0, tdata=0)
        models = platform.markov_models()
        assert isinstance(models[0], MarkovAvailabilityModel)

    def test_markov_models_reuse_markov_availability(self):
        processors = make_processors(2)
        platform = Platform(processors, ncom=1, tprog=0, tdata=0)
        models = platform.markov_models()
        assert all(m is p.availability for m, p in zip(models, processors))

    def test_processors_is_a_copy(self):
        platform = Platform(make_processors(2), ncom=1, tprog=0, tdata=0)
        platform.processors.clear()
        assert platform.num_processors == 2


class TestDescribe:
    def test_describe(self):
        platform = Platform(make_processors(2), ncom=1, tprog=0, tdata=0)
        assert "p=2" in platform.describe()

    def test_describe_mentions_hazard(self):
        platform = Platform(make_processors(1), ncom=1, tprog=0, tdata=0, hazard=StubHazard())
        assert "hazard=stub-hazard" in platform.describe()
