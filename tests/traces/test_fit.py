"""Tests for the calibrated-model fitters: recovery, GoF, edge cases."""

import numpy as np
import pytest

from repro.availability.diurnal import DiurnalAvailabilityModel, DiurnalPhase
from repro.availability.markov import MarkovAvailabilityModel
from repro.availability.semi_markov import SemiMarkovAvailabilityModel
from repro.availability.trace import AvailabilityTrace
from repro.traces.fit import (
    TraceFitError,
    fit_diurnal,
    fit_markov,
    fit_model,
    fit_semi_markov,
    ks_distance,
)

MATRIX = np.array(
    [
        [0.94, 0.04, 0.02],
        [0.30, 0.65, 0.05],
        [0.25, 0.05, 0.70],
    ]
)


def sample_rows(model_factory, num_rows, length, seed0=100):
    return AvailabilityTrace(
        np.vstack(
            [model_factory().sample_trajectory(length, seed0 + row) for row in range(num_rows)]
        )
    )


class TestKsDistance:
    def test_perfect_fit_is_small(self):
        samples = [1, 1, 2, 2, 3, 3]

        def ecdf(k):
            k = np.asarray(k, dtype=float)
            return np.select([k >= 3, k >= 2, k >= 1], [1.0, 2 / 3, 1 / 3], 0.0)

        assert ks_distance(samples, ecdf) == pytest.approx(0.0)

    def test_empty_is_nan(self):
        assert np.isnan(ks_distance([], lambda k: np.asarray(k) * 0.0))

    def test_bad_fit_is_large(self):
        assert ks_distance([10, 10, 10], lambda k: np.minimum(np.asarray(k) / 1000, 1)) > 0.9


class TestFitMarkov:
    def test_recovers_matrix(self):
        trace = sample_rows(lambda: MarkovAvailabilityModel(MATRIX), 6, 20_000)
        fitted = fit_markov(trace)
        assert np.allclose(
            np.asarray(fitted.parameters["matrix"]), MATRIX, atol=0.02
        )
        assert fitted.num_transitions == 6 * (20_000 - 1)
        assert fitted.log_likelihood < 0

    def test_fit_generate_fit_round_trip(self):
        first = fit_markov(sample_rows(lambda: MarkovAvailabilityModel(MATRIX), 4, 15_000))
        regenerated = sample_rows(lambda: first.instantiate(), 4, 15_000, seed0=500)
        second = fit_markov(regenerated)
        assert np.allclose(
            np.asarray(first.parameters["matrix"]),
            np.asarray(second.parameters["matrix"]),
            atol=0.02,
        )

    def test_geometric_sojourns_give_small_ks(self):
        trace = sample_rows(lambda: MarkovAvailabilityModel(MATRIX), 4, 20_000)
        fitted = fit_markov(trace)
        # Markov data really has geometric sojourns: the KS diagnostic is small.
        assert fitted.ks["UP"] < 0.05

    def test_instances_are_fresh(self):
        trace = sample_rows(lambda: MarkovAvailabilityModel(MATRIX), 2, 500)
        fitted = fit_markov(trace)
        models = fitted.make_models(3)
        assert len({id(model) for model in models}) == 3

    def test_constant_trace_rejected(self):
        with pytest.raises(TraceFitError):
            fit_markov(np.zeros((2, 1), dtype=np.int8))

    def test_accepts_single_sequence_and_strings(self):
        fitted = fit_markov(list("uurrdduu" * 20))
        assert fitted.kind == "markov"


class TestFitSemiMarkov:
    def make_reference(self):
        return SemiMarkovAvailabilityModel.desktop_grid(
            up_shape=0.65, mean_up=30.0, mean_reclaimed=4.0, mean_down=12.0,
            reclaim_fraction=0.75,
        )

    def test_recovers_sojourn_parameters(self):
        trace = sample_rows(self.make_reference, 8, 30_000)
        fitted = fit_semi_markov(trace)
        up = fitted.parameters["up"]
        assert up["family"] == "weibull"
        # Slot-ceiling biases the continuous parameters slightly; the shape
        # and the implied mean must land near the generator's.
        assert up["shape"] == pytest.approx(0.65, rel=0.15)
        mean_up = fitted.sojourns[0].distribution.mean()
        assert mean_up == pytest.approx(30.0, rel=0.15)
        jump = np.asarray(fitted.parameters["jump_matrix"])
        assert jump[0, 1] == pytest.approx(0.75, abs=0.05)
        assert np.all(np.abs(np.diag(jump)) < 1e-12)

    def test_fit_generate_fit_round_trip(self):
        first = fit_semi_markov(sample_rows(self.make_reference, 6, 25_000))
        regenerated = sample_rows(lambda: first.instantiate(), 6, 25_000, seed0=700)
        second = fit_semi_markov(regenerated)
        for state in ("up", "reclaimed", "down"):
            before = first.parameters[state]
            after = second.parameters[state]
            assert before["family"] == after["family"]
        assert first.sojourns[0].distribution.mean() == pytest.approx(
            second.sojourns[0].distribution.mean(), rel=0.15
        )

    def test_semi_markov_beats_markov_on_heavy_tails(self):
        trace = sample_rows(self.make_reference, 6, 20_000)
        markov = fit_markov(trace)
        semi = fit_semi_markov(trace)
        # The KS distance of the UP-interval distribution is the signature
        # of the "flawed Markov fit" the paper's conclusion discusses.
        assert semi.ks["UP"] < markov.ks["UP"]

    def test_family_override_and_unknown_family(self):
        trace = sample_rows(self.make_reference, 2, 5_000)
        fitted = fit_semi_markov(trace, families={0: "geometric"})
        assert fitted.parameters["up"]["family"] == "geometric"
        with pytest.raises(TraceFitError, match="family"):
            fit_semi_markov(trace, families={0: "zipf"})

    def test_constant_trace_rejected(self):
        with pytest.raises(TraceFitError):
            fit_semi_markov(list("uuuuuu"))


class TestFitDiurnal:
    def make_reference(self, day_length=48):
        quiet = np.array([[0.995, 0.004, 0.001], [0.5, 0.48, 0.02], [0.3, 0.1, 0.6]])
        busy = np.array([[0.85, 0.12, 0.03], [0.15, 0.80, 0.05], [0.30, 0.10, 0.60]])
        half = day_length // 2
        return DiurnalAvailabilityModel(
            [DiurnalPhase("busy", half, busy), DiurnalPhase("quiet", half, quiet)]
        )

    def test_recovers_phase_matrices(self):
        day_length = 48
        trace = sample_rows(lambda: self.make_reference(day_length), 8, 40_000)
        fitted = fit_diurnal(trace, day_length=day_length, num_phases=2)
        matrices = np.asarray(fitted.parameters["phase_matrices"])
        reference = self.make_reference(day_length)
        for index, phase in enumerate(reference.phases):
            assert np.allclose(matrices[index], phase.matrix, atol=0.03), (
                f"phase {index} not recovered"
            )

    def test_fit_generate_fit_round_trip(self):
        day_length = 48
        first = fit_diurnal(
            sample_rows(lambda: self.make_reference(day_length), 6, 30_000),
            day_length=day_length, num_phases=2,
        )
        regenerated = sample_rows(lambda: first.instantiate(), 6, 30_000, seed0=900)
        second = fit_diurnal(regenerated, day_length=day_length, num_phases=2)
        assert np.allclose(
            np.asarray(first.parameters["phase_matrices"]),
            np.asarray(second.parameters["phase_matrices"]),
            atol=0.03,
        )

    def test_diurnal_loglik_beats_homogeneous_on_diurnal_data(self):
        trace = sample_rows(lambda: self.make_reference(48), 4, 20_000)
        markov = fit_markov(trace)
        diurnal = fit_diurnal(trace, day_length=48, num_phases=2)
        assert diurnal.log_likelihood > markov.log_likelihood

    def test_invalid_folding(self):
        with pytest.raises(TraceFitError):
            fit_diurnal(list("urdu" * 10), day_length=2, num_phases=4)

    def test_constant_trace_rejected(self):
        with pytest.raises(TraceFitError):
            fit_diurnal(np.zeros((1, 1), dtype=np.int8))


class TestDispatch:
    def test_fit_model_kinds(self):
        trace = sample_rows(
            lambda: MarkovAvailabilityModel(MATRIX), 2, 3_000
        )
        for kind in ("markov", "semi-markov", "diurnal", "degradation"):
            fitted = fit_model(kind, trace)
            assert fitted.kind == kind
            summary = fitted.summary()
            assert summary["kind"] == kind
            assert {"UP", "RECLAIMED", "DOWN"} <= set(summary["ks"])
        # "correlated" needs multi-worker outage structure that independent
        # chains don't have; its recovery lives in test_hazard_fit.py.
        with pytest.raises(TraceFitError):
            fit_model("correlated", trace)

    def test_unknown_kind(self):
        with pytest.raises(TraceFitError, match="unknown fit kind"):
            fit_model("fourier", list("urdu"))


class TestCensoring:
    def test_fitters_exclude_edge_censored_runs(self):
        # One giant censored UP run at each edge; the only complete UP runs
        # have length 2.  A censoring-aware fit must not see the edges.
        sequence = list("u" * 500 + "r" + "uu" + "r" + "uu" + "r" + "u" * 500)
        fitted = fit_semi_markov(sequence, families={0: "geometric"})
        assert fitted.sojourns[0].distribution.mean() == pytest.approx(2.0)
        biased = fit_semi_markov(sequence, families={0: "geometric"}, censor_edges=False)
        assert biased.sojourns[0].distribution.mean() > 100
