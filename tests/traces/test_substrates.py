"""Integration of the trace substrates with the registry, specs and campaigns.

Covers the acceptance criteria of the trace subsystem: one recorded dataset
reachable three ways through the component grammar (bootstrap replay,
fitted-Markov, fitted-semi-Markov), golden-seed reproducibility of a
bootstrap-resampled campaign through spec -> store -> tables, and the
engine's fast paths agreeing with its slot-by-slot path on a bootstrap
substrate.
"""

import numpy as np
import pytest

from repro.application import Application
from repro.availability.registry import AVAILABILITY_MODELS, model_factory_for
from repro.exceptions import ExperimentError
from repro.experiments.runner import run_campaign_spec
from repro.experiments.scenarios import AvailabilitySpec
from repro.experiments.spec import load_spec
from repro.experiments.store import ResultStore
from repro.experiments.tables import format_spec_report
from repro.simulation import SimulationEngine


def availability(kind, **parameters):
    return AvailabilitySpec(kind=kind, parameters=tuple(parameters.items()))


class TestRegistry:
    def test_substrates_registered(self):
        names = AVAILABILITY_MODELS.names()
        for kind in ("trace-catalog", "trace-bootstrap", "fitted"):
            assert kind in names

    def test_three_ways_to_name_one_dataset(self, example_traces_dir):
        """Bootstrap replay, fitted-Markov and fitted-semi-Markov substrates."""
        path = str(example_traces_dir / "desktop_week.csv")
        specs = [
            availability("trace-bootstrap", path=path, slot=900),
            availability("fitted", model="markov", path=path, slot=900),
            availability("fitted", model="semi-markov", path=path, slot=900),
        ]
        for spec in specs:
            models = model_factory_for(spec)(np.random.default_rng(0), 4)
            assert len(models) == 4

    def test_catalog_substrate(self, example_traces_dir):
        spec = availability(
            "trace-catalog", path=str(example_traces_dir), dataset="desktop_week"
        )
        models = model_factory_for(spec)(np.random.default_rng(0), 14)
        # Round-robin assignment over the 12 recorded machines.
        assert np.array_equal(
            models[0].sample_trajectory(700, seed=0), models[12].sample_trajectory(700, seed=0)
        )

    def test_catalog_requires_dataset(self, example_traces_dir):
        spec = availability("trace-catalog", path=str(example_traces_dir))
        with pytest.raises(ExperimentError, match="dataset"):
            model_factory_for(spec)(np.random.default_rng(0), 2)

    def test_fitted_requires_known_model(self, example_traces_dir):
        spec = availability(
            "fitted", model="fourier", path=str(example_traces_dir / "desktop_week.csv"),
            slot=900,
        )
        with pytest.raises(ExperimentError, match="model"):
            model_factory_for(spec)

    def test_catalog_substrate_honours_spec_discretisation(self, tmp_path):
        # Regression: spec-side slot/gap/overlap used to be ignored for
        # catalog directories without a catalog.json entry.
        (tmp_path / "rec.csv").write_text("n,0,1800,u\nn,1800,2700,d\n")
        spec = availability(
            "trace-catalog", path=str(tmp_path), dataset="rec", slot=900
        )
        models = model_factory_for(spec)(np.random.default_rng(0), 1)
        # 1800 s UP then 900 s DOWN at 900 s slots: "uud", replayed round.
        assert models[0].sample_trajectory(6, seed=0).tolist() == [0, 0, 2, 0, 0, 2]

    def test_fitted_substrate_fits_once_per_dataset(self, example_traces_dir, monkeypatch):
        # Regression: the fit used to be recomputed on every scenario build.
        import repro.availability.registry as registry
        import repro.traces.fit as fit

        registry._FIT_CACHE.clear()
        calls = []
        real_fit_model = fit.fit_model
        monkeypatch.setattr(
            fit, "fit_model",
            lambda *args, **kwargs: calls.append(1) or real_fit_model(*args, **kwargs),
        )
        spec = availability(
            "fitted", model="markov",
            path=str(example_traces_dir / "desktop_week.csv"), slot=900,
        )
        for _ in range(3):  # three scenario platform builds
            model_factory_for(spec)(np.random.default_rng(0), 2)
        assert len(calls) == 1

    def test_fitted_models_are_independent_instances(self, example_traces_dir):
        spec = availability(
            "fitted", model="semi-markov",
            path=str(example_traces_dir / "desktop_week.csv"), slot=900,
        )
        models = model_factory_for(spec)(np.random.default_rng(1), 3)
        assert len({id(model) for model in models}) == 3

    def test_unknown_parameter_rejected_by_spec(self):
        with pytest.raises(ExperimentError, match="no parameter"):
            availability("trace-bootstrap", path="x.csv", typo=1)

    def test_kind_alias_for_fitted_model(self, example_traces_dir):
        # "kind" is an accepted alias of the "model" parameter and
        # canonicalizes to the registered spelling.
        spec = AvailabilitySpec(
            kind="fitted",
            parameters=(
                ("kind", "markov"),
                ("path", str(example_traces_dir / "desktop_week.csv")),
                ("slot", 900),
            ),
        )
        assert spec.get("model") == "markov"


class TestSpecPathResolution:
    def test_relative_paths_resolve_against_spec_dir(self, example_campaign_spec):
        spec = load_spec(example_campaign_spec)
        runtime = spec._runtime_availability()
        assert runtime is not None
        path = runtime.get("path")
        assert str(path).endswith("desktop_week.csv")
        assert str(example_campaign_spec.parent) in str(path)

    def test_hash_ignores_base_dir(self, example_campaign_spec, tmp_path):
        import shutil

        spec = load_spec(example_campaign_spec)
        copy_dir = tmp_path / "elsewhere"
        copy_dir.mkdir()
        shutil.copy(example_campaign_spec, copy_dir / "campaign_traces.toml")
        shutil.copytree(
            example_campaign_spec.parent / "traces", copy_dir / "traces"
        )
        relocated = load_spec(copy_dir / "campaign_traces.toml")
        assert relocated.spec_hash() == spec.spec_hash()


class TestGoldenCampaign:
    """Golden-seed pinning of the bootstrap-resampled example campaign.

    The pinned values were produced by the shipped spec at the time the
    trace subsystem landed; any change means recorded-trace campaigns are no
    longer reproducible across versions (or the example dataset changed —
    regenerate deliberately, then update both).
    """

    GOLDEN = {
        (0, "IE", 0): 35,
        (1, "RANDOM", 0): 110,
        (2, "IE", 1): 35,
        (3, "RANDOM", 1): 167,
    }

    @pytest.fixture(scope="class")
    def campaign_results(self, example_campaign_spec, tmp_path_factory):
        spec = load_spec(example_campaign_spec)
        store_dir = tmp_path_factory.mktemp("store") / "golden"
        with ResultStore.create(store_dir, spec) as store:
            run_campaign_spec(spec, store=store)
            records = store.records()
            results = store.results()
        return spec, records, results

    def test_golden_makespans(self, campaign_results):
        _, records, _ = campaign_results
        observed = {
            (record["cell"], record["heuristic"], record["trial_index"]): record["makespan"]
            for record in records
        }
        assert observed == self.GOLDEN

    def test_resume_is_bit_identical(self, example_campaign_spec, campaign_results, tmp_path):
        spec = load_spec(example_campaign_spec)
        _, full_records, _ = campaign_results
        with ResultStore.create(tmp_path / "resumed", spec) as store:
            run_campaign_spec(spec, store=store, max_cells=2)
            run_campaign_spec(spec, store=store)
            resumed = store.records()

        def stable(records):
            return [
                {key: value for key, value in record.items() if key != "wall_time_seconds"}
                for record in records
            ]

        assert stable(resumed) == stable(full_records)

    def test_tables_render(self, campaign_results):
        spec, _, results = campaign_results
        report = format_spec_report(results, spec)
        assert "IE" in report and "RANDOM" in report


class TestEnginePathDifferential:
    """On a bootstrap substrate the fast paths equal the slot-by-slot path."""

    def test_engine_fast_vs_per_slot_on_bootstrap_substrate(self, example_traces_dir):
        from repro.platform.builders import PlatformSpec, availability_platform
        from repro.scheduling.registry import create_scheduler

        spec = availability(
            "trace-bootstrap",
            path=str(example_traces_dir / "desktop_week.csv"),
            slot=900, block=96,
        )
        results = {}
        for record_events in (False, True):
            factory = model_factory_for(spec)
            platform = availability_platform(
                PlatformSpec(num_processors=8, ncom=5, wmin=1),
                num_tasks=4, seed=42, model_factory=factory,
            )
            engine = SimulationEngine(
                platform,
                Application(tasks_per_iteration=4, iterations=3),
                create_scheduler("IE"),
                seed=17,
                max_slots=30_000,
                record_events=record_events,
            )
            results[record_events] = engine.run()
        assert results[False] == results[True]
