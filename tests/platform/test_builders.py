"""Tests for platform builders (paper methodology and uniform platforms)."""

import numpy as np
import pytest

from repro.availability import MarkovAvailabilityModel
from repro.exceptions import InvalidPlatformError
from repro.platform import PlatformSpec, paper_platform, uniform_platform


class TestPlatformSpec:
    def test_defaults_match_paper(self):
        spec = PlatformSpec()
        assert spec.num_processors == 20
        assert spec.tdata == spec.wmin
        assert spec.tprog == 5 * spec.wmin

    def test_derived_times_scale_with_wmin(self):
        spec = PlatformSpec(wmin=4)
        assert spec.tdata == 4
        assert spec.tprog == 20

    @pytest.mark.parametrize("kwargs", [
        {"num_processors": 0}, {"ncom": 0}, {"wmin": 0}, {"speed_factor": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidPlatformError):
            PlatformSpec(**kwargs)


class TestPaperPlatform:
    def test_structure(self):
        spec = PlatformSpec(num_processors=12, ncom=5, wmin=2)
        platform = paper_platform(spec, num_tasks=5, seed=0)
        assert platform.num_processors == 12
        assert platform.ncom == 5
        assert platform.tdata == 2
        assert platform.tprog == 10

    def test_speeds_in_range(self):
        spec = PlatformSpec(num_processors=30, wmin=3)
        platform = paper_platform(spec, num_tasks=5, seed=1)
        speeds = [proc.speed for proc in platform]
        assert min(speeds) >= 3
        assert max(speeds) <= 30

    def test_capacity_defaults_to_m(self):
        platform = paper_platform(PlatformSpec(num_processors=4), num_tasks=7, seed=2)
        assert platform.capacities().tolist() == [7, 7, 7, 7]

    def test_capacity_override(self):
        platform = paper_platform(
            PlatformSpec(num_processors=4, capacity=1), num_tasks=7, seed=2
        )
        assert platform.capacities().tolist() == [1, 1, 1, 1]

    def test_deterministic_given_seed(self):
        spec = PlatformSpec(num_processors=6)
        a = paper_platform(spec, num_tasks=5, seed=9)
        b = paper_platform(spec, num_tasks=5, seed=9)
        assert [proc.speed for proc in a] == [proc.speed for proc in b]
        assert all(
            np.allclose(x.availability.matrix, y.availability.matrix)
            for x, y in zip(a.processors, b.processors)
        )

    def test_stay_probabilities_in_paper_range(self):
        platform = paper_platform(PlatformSpec(num_processors=10), num_tasks=5, seed=4)
        for proc in platform:
            diag = np.diag(proc.availability.matrix)
            assert np.all(diag >= 0.90) and np.all(diag <= 0.99)

    def test_invalid_num_tasks(self):
        with pytest.raises(InvalidPlatformError):
            paper_platform(PlatformSpec(), num_tasks=0, seed=0)


class TestUniformPlatform:
    def test_default_reliable(self):
        platform = uniform_platform(3, speed=2, capacity=1)
        assert platform.num_processors == 3
        assert platform.ncom == 3
        for proc in platform:
            assert not proc.availability.can_fail()

    def test_shared_availability(self):
        model = MarkovAvailabilityModel.always_up()
        platform = uniform_platform(4, availability=model)
        assert all(proc.availability is model for proc in platform)

    def test_per_processor_availabilities(self):
        models = [MarkovAvailabilityModel.always_up() for _ in range(2)]
        platform = uniform_platform(2, availabilities=models)
        assert platform.processor(1).availability is models[1]

    def test_availabilities_length_mismatch(self):
        with pytest.raises(InvalidPlatformError):
            uniform_platform(3, availabilities=[MarkovAvailabilityModel.always_up()])

    def test_both_availability_arguments_rejected(self):
        model = MarkovAvailabilityModel.always_up()
        with pytest.raises(InvalidPlatformError):
            uniform_platform(2, availability=model, availabilities=[model, model])

    def test_zero_processors_rejected(self):
        with pytest.raises(InvalidPlatformError):
            uniform_platform(0)
