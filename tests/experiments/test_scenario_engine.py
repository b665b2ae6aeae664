"""Tests for the declarative scenario engine (spec → runner → result)."""

import json

import numpy as np
import pytest

from repro.experiments.engine import (ANALYSES, REGISTRY, SERIES_METRICS,
                                      FailureSpec, FleetSpec,
                                      ScenarioRegistry, ScenarioSpec,
                                      SchedulerSpec, TariffSpec,
                                      TrainingSpec, VariantSpec,
                                      WorkloadSpec, format_scenario_result,
                                      run_scenario)
from repro.experiments.scenario import ScenarioConfig

SMALL = ScenarioConfig(n_intervals=8, scale=2.0, seed=5)


def small_spec(**kwargs) -> ScenarioSpec:
    defaults = dict(
        name="unit",
        description="unit-test scenario",
        fleet=FleetSpec("multidc", config=SMALL),
        workload=WorkloadSpec("multidc", config=SMALL),
        variants=(VariantSpec("static", SchedulerSpec("static")),
                  VariantSpec("oracle", SchedulerSpec("oracle"))),
        seed=5)
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestRunScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(small_spec())

    def test_variants_present(self, result):
        assert set(result.variants) == {"static", "oracle"}

    def test_series_shapes(self, result):
        for v in result.variants.values():
            for metric in SERIES_METRICS:
                assert v.series[metric].shape == (SMALL.n_intervals,)

    def test_kpis_real_physics(self, result):
        for v in result.variants.values():
            k = v.kpis()
            assert 0.0 < k["avg_sla"] <= 1.0
            assert k["avg_watts"] > 0.0
            assert k["n_intervals"] == SMALL.n_intervals

    def test_static_never_migrates(self, result):
        assert result.variant("static").summary.n_migrations == 0

    def test_timings_recorded(self, result):
        assert result.timings["total_s"] > 0.0
        assert "train_s" in result.timings and "build_s" in result.timings

    def test_format_renders(self, result):
        text = format_scenario_result(result)
        assert "static" in text and "oracle" in text
        assert "timings" in text


class TestHorizonAndScale:
    def test_horizon_truncates(self):
        result = run_scenario(small_spec(horizon=3))
        assert result.variant("static").summary.n_intervals == 3

    def test_trace_scale_raises_load(self):
        spec = small_spec(variants=(
            VariantSpec("base", SchedulerSpec("static")),
            VariantSpec("double", SchedulerSpec("static"),
                        trace_scale=2.0)))
        result = run_scenario(spec)
        base = result.variant("base").series["total_rps"]
        double = result.variant("double").series["total_rps"]
        assert np.allclose(double, 2.0 * base)


class TestFailuresAndTariffs:
    def test_failure_spec_injects(self):
        spec = small_spec(
            fleet=FleetSpec("multidc", config=ScenarioConfig(
                pms_per_dc=2, n_intervals=8, scale=2.0, seed=5)),
            failures=FailureSpec(fail_prob=0.5, repair_intervals=2,
                                 max_down=2, seed=1),
            variants=(VariantSpec("managed", SchedulerSpec(
                "hierarchical", params=dict(estimator="oracle"))),))
        result = run_scenario(spec)
        injector = result.variant("managed").failure_injector
        assert injector is not None and len(injector.events) > 0

    def test_tariff_spec_applied(self):
        spec = small_spec(
            tariffs=TariffSpec(kind="time_of_use",
                               params=dict(peak_multiplier=3.0)),
            variants=(VariantSpec("static", SchedulerSpec("static")),))
        result = run_scenario(spec)
        # Energy cost varies between intervals under time-of-use pricing.
        costs = result.variant("static").series["energy_cost_eur"]
        assert costs.std() > 0.0

    def test_solar_tz_spread_rotates_cheapest(self):
        spec = small_spec(
            tariffs=TariffSpec(kind="solar", tz_spread=True,
                               interval_s=3600.0 * 3,
                               params=dict(solar_discount=0.9)),
            variants=(VariantSpec("static", SchedulerSpec("static")),))
        run_scenario(spec)  # smoke: builds and applies without error


class TestTraining:
    def test_bf_ml_without_training_raises(self):
        spec = small_spec(variants=(
            VariantSpec("ml", SchedulerSpec("bf_ml")),))
        with pytest.raises(ValueError, match="models"):
            run_scenario(spec)

    def test_training_phase_produces_models(self):
        spec = small_spec(
            training=TrainingSpec(scales=(0.8, 1.6), seed=5),
            variants=(VariantSpec("ml", SchedulerSpec("bf_ml")),))
        result = run_scenario(spec)
        assert result.models is not None
        assert result.monitor is not None
        assert result.variant("ml").models is result.models


class TestTrainingReuseKeying:
    """Shared-model reuse is keyed on the *full* training knobs: variants
    with different TrainingSpecs never silently share a ModelSet, while
    identical specs train exactly once."""

    def test_different_training_specs_get_different_models(self):
        shared = TrainingSpec(scales=(0.8, 1.6), seed=5)
        bagged = TrainingSpec(scales=(0.8, 1.6), seed=5, bagging=2)
        spec = small_spec(
            training=shared,
            variants=(
                VariantSpec("raw", SchedulerSpec("bf_ml")),
                VariantSpec("bagged", SchedulerSpec("bf_ml"),
                            training=bagged),
            ))
        result = run_scenario(spec)
        raw = result.variant("raw").models
        bag = result.variant("bagged").models
        assert raw is result.models
        assert bag is not raw
        # The knob really reached training: bagged predictors are
        # ensembles, raw ones are single models.
        assert hasattr(bag["vm_cpu"].model, "n_members")
        assert not hasattr(raw["vm_cpu"].model, "n_members")

    def test_identical_variant_spec_reuses_scenario_models(self):
        """A variant-level TrainingSpec equal to the scenario's shares
        the scenario's model set instead of retraining."""
        shared = TrainingSpec(scales=(0.8, 1.6), seed=5)
        spec = small_spec(
            training=shared,
            variants=(
                VariantSpec("a", SchedulerSpec("bf_ml")),
                VariantSpec("b", SchedulerSpec("bf_ml"), training=shared),
            ))
        result = run_scenario(spec)
        assert result.variant("b").models is result.variant("a").models

    def test_identical_variant_specs_train_once(self):
        bagged = TrainingSpec(scales=(0.8, 1.6), seed=5, bagging=2)
        spec = small_spec(
            training=TrainingSpec(scales=(0.8, 1.6), seed=5),
            variants=(
                VariantSpec("a", SchedulerSpec("bf_ml"), training=bagged),
                VariantSpec("b", SchedulerSpec("bf_ml"), training=bagged),
            ))
        result = run_scenario(spec)
        assert result.variant("a").models is result.variant("b").models
        assert result.variant("a").models is not result.models

    def test_calibrate_knob_is_part_of_the_key(self):
        base = TrainingSpec(scales=(0.8, 1.6), seed=5)
        uncal = TrainingSpec(scales=(0.8, 1.6), seed=5, calibrate=False)
        spec = small_spec(
            training=base,
            variants=(
                VariantSpec("cal", SchedulerSpec("bf_ml")),
                VariantSpec("uncal", SchedulerSpec("bf_ml"),
                            training=uncal),
            ))
        result = run_scenario(spec)
        assert result.variant("uncal").models is not result.models
        assert result.variant("uncal").models.calibration("vm_sla") is None
        assert result.variant("cal").models.calibration("vm_sla") is not None


class TestRiskKnob:
    def test_risk_reaches_the_scheduler(self):
        """A risk-averse variant must behave differently from the raw one
        on the same trace and models (the knob is live end to end)."""
        from repro.ml.calibration import RiskConfig
        spec = small_spec(
            training=TrainingSpec(scales=(0.8, 1.6), seed=5),
            variants=(
                VariantSpec("raw", SchedulerSpec("bf_ml")),
                VariantSpec("risk", SchedulerSpec("bf_ml"),
                            risk=RiskConfig(coverage=0.9,
                                            spread_weight=1.0)),
            ))
        result = run_scenario(spec)
        raw = result.variant("raw").kpis()
        risky = result.variant("risk").kpis()
        assert raw != risky

    def test_risk_on_non_ml_scheduler_fails_loudly(self):
        from repro.ml.calibration import RiskConfig
        spec = small_spec(variants=(
            VariantSpec("static", SchedulerSpec("static"),
                        risk=RiskConfig()),))
        with pytest.raises(ValueError, match="risk"):
            run_scenario(spec)

    def test_risk_on_hierarchical_oracle_fails_loudly(self):
        from repro.ml.calibration import RiskConfig
        spec = small_spec(variants=(
            VariantSpec("h", SchedulerSpec(
                "hierarchical", params=dict(estimator="oracle")),
                risk=RiskConfig()),))
        with pytest.raises(ValueError, match="risk"):
            run_scenario(spec)

    def test_risk_on_hierarchical_ml_supported(self):
        from repro.ml.calibration import RiskConfig
        spec = small_spec(
            training=TrainingSpec(scales=(0.8, 1.6), seed=5),
            variants=(VariantSpec("h", SchedulerSpec(
                "hierarchical", params=dict(estimator="ml")),
                risk=RiskConfig(coverage=0.5)),))
        result = run_scenario(spec)
        assert result.variant("h").summary.n_intervals == SMALL.n_intervals


class TestSerialization:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(small_spec())

    def test_json_schema(self, result, tmp_path):
        path = tmp_path / "out.json"
        result.save_json(path)
        data = json.loads(path.read_text())
        assert data["scenario"] == "unit"
        assert set(data["variants"]) == {"static", "oracle"}
        for entry in data["variants"].values():
            assert "kpis" in entry and "series" in entry
            assert set(entry["series"]) == set(SERIES_METRICS)
            assert len(entry["series"]["sla"]) == SMALL.n_intervals
        assert "timings" in data and "extras" in data

    def test_json_without_series(self, result, tmp_path):
        path = tmp_path / "lean.json"
        result.save_json(path, include_series=False)
        data = json.loads(path.read_text())
        assert "series" not in data["variants"]["static"]

    def test_csv_rows(self, result, tmp_path):
        import csv
        path = tmp_path / "out.csv"
        result.save_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * SMALL.n_intervals
        assert {"variant", "t", "sla", "watts"} <= set(rows[0])


class TestRegistry:
    def test_registry_populated(self):
        for name in ("table1", "table2", "table3", "figure4", "figure5",
                     "figure6", "figure7", "figure8", "delocation",
                     "harvest_ablation", "scaling",
                     "flash_crowd_failures", "follow_the_sun_8dc",
                     "ml_large_fleet", "huge_fleet_stream"):
            assert name in REGISTRY, name

    def test_spec_overrides(self):
        spec = REGISTRY.spec("table3", n_intervals=12, seed=3)
        assert spec.workload.config.n_intervals == 12

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            REGISTRY.spec("no_such_scenario")

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        registry.register("x")(lambda **kw: small_spec())
        with pytest.raises(ValueError):
            registry.register("x")(lambda **kw: small_spec())

    def test_run_scenario_by_name(self):
        result = run_scenario("table2")
        assert "Table II" in result.extras["report"]

    def test_unknown_analysis_raises(self):
        with pytest.raises(KeyError, match="unknown analysis"):
            run_scenario(small_spec(variants=(), analysis="nope"))
