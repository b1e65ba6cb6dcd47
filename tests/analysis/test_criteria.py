"""Tests for the scheduling criteria (P, E, Y, AY)."""


import pytest

from repro.analysis.communication import CommunicationEstimate
from repro.analysis.criteria import (
    PROACTIVE_CRITERIA,
    ApparentYieldCriterion,
    ExpectedTimeCriterion,
    ProbabilityCriterion,
    YieldCriterion,
    get_criterion,
)
from repro.analysis.evaluation import ConfigurationEstimate
from repro.application import Configuration


def make_estimate(probability=0.8, comm_time=4.0, comp_time=6.0, elapsed=0,
                  comm_probability=1.0):
    return ConfigurationEstimate(
        configuration=Configuration({0: 1}),
        workload=3,
        communication=CommunicationEstimate(
            expected_time=comm_time,
            success_probability=comm_probability,
            bottleneck_master=False,
            total_slots=4,
        ),
        computation_probability=probability,
        computation_time=comp_time,
        elapsed=elapsed,
    )


class TestCriterionValues:
    def test_probability(self):
        estimate = make_estimate(probability=0.5, comm_probability=0.8)
        assert ProbabilityCriterion().value(estimate) == pytest.approx(0.4)

    def test_expected_time(self):
        estimate = make_estimate(comm_time=3.0, comp_time=7.0)
        assert ExpectedTimeCriterion().value(estimate) == pytest.approx(10.0)

    def test_yield(self):
        estimate = make_estimate(probability=0.5, comm_time=2.0, comp_time=8.0, elapsed=10)
        assert YieldCriterion().value(estimate) == pytest.approx(0.5 / 20.0)

    def test_apparent_yield(self):
        estimate = make_estimate(probability=0.5, comm_time=2.0, comp_time=8.0, elapsed=10)
        assert ApparentYieldCriterion().value(estimate) == pytest.approx(0.5 / 10.0)


class TestComparisons:
    def test_higher_better_criteria(self):
        for criterion in (ProbabilityCriterion(), YieldCriterion(), ApparentYieldCriterion()):
            assert criterion.better(0.9, 0.5)
            assert not criterion.better(0.5, 0.9)
            assert not criterion.better(0.5, 0.5)  # strict comparison

    def test_lower_better_criterion(self):
        criterion = ExpectedTimeCriterion()
        assert criterion.better(5.0, 9.0)
        assert not criterion.better(9.0, 5.0)
        assert not criterion.better(5.0, 5.0)

    def test_nan_handling(self):
        criterion = ProbabilityCriterion()
        assert not criterion.better(float("nan"), 0.1)
        assert criterion.better(0.1, float("nan"))


class TestRegistry:
    @pytest.mark.parametrize("name,cls", [
        ("P", ProbabilityCriterion),
        ("e", ExpectedTimeCriterion),
        ("Y", YieldCriterion),
        ("ay", ApparentYieldCriterion),
    ])
    def test_get_criterion(self, name, cls):
        assert isinstance(get_criterion(name), cls)

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            get_criterion("Z")

    def test_proactive_criteria_exclude_apparent_yield(self):
        assert "AY" not in PROACTIVE_CRITERIA
        assert set(PROACTIVE_CRITERIA) == {"P", "E", "Y"}
        assert not ApparentYieldCriterion().proactive_safe
        for name in PROACTIVE_CRITERIA:
            assert get_criterion(name).proactive_safe
