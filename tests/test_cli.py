"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import ARTIFACTS, build_parser, build_scenario_parser, main
from repro.experiments import REGISTRY
from repro.experiments.table2 import format_table2, run_table2


class TestParser:
    def test_artifact_choices_cover_all_paper_artifacts(self):
        assert set(ARTIFACTS) == {"table1", "table2", "table3", "figure4",
                                  "figure5", "figure6", "figure7",
                                  "figure8", "delocation"}

    def test_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.intervals == 144
        assert args.scale == 3.0
        assert args.seed == 7

    def test_overrides(self):
        args = build_parser().parse_args(
            ["table3", "--intervals", "24", "--scale", "2.0", "--seed",
             "1"])
        assert args.intervals == 24
        assert args.scale == 2.0

    def test_bad_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ARTIFACTS:
            assert name in out

    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Barcelona" in out

    def test_figure5_small(self, capsys):
        assert main(["figure5", "--intervals", "24"]) == 0
        out = capsys.readouterr().out
        assert "following the load" in out

    def test_table3_small(self, capsys):
        assert main(["table3", "--intervals", "18", "--scale", "2.5"]) == 0
        out = capsys.readouterr().out
        assert "Static-Global" in out

    def test_legacy_artifact_byte_identical(self, capsys):
        """The legacy command prints exactly the format_* report."""
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert format_table2(run_table2()) in out


class TestScenariosCLI:
    def test_list_covers_registry(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY.names():
            assert name in out

    def test_run_prints_kpi_report(self, capsys):
        assert main(["scenarios", "run", "figure5",
                     "--intervals", "16"]) == 0
        out = capsys.readouterr().out
        assert "Scenario figure5" in out
        assert "avg SLA" in out and "timings" in out

    def test_run_json_artifact_schema(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        assert main(["scenarios", "run", "table3", "--intervals", "8",
                     "--scale", "2.0", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["scenario"] == "table3"
        assert set(data["variants"]) == {"static", "dynamic"}
        for entry in data["variants"].values():
            assert 0.0 <= entry["kpis"]["avg_sla"] <= 1.0
            assert len(entry["series"]["watts"]) == 8
        assert "timings" in data and "extras" in data

    def test_run_csv_roundtrip(self, capsys, tmp_path):
        import csv
        path = tmp_path / "rows.csv"
        assert main(["scenarios", "run", "figure5", "--intervals", "8",
                     "--csv", str(path)]) == 0
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert rows[0]["variant"] == "follow"

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["scenarios", "run", "figure99"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        # The error is actionable: it lists every registered name.
        from repro.experiments import REGISTRY
        for name in REGISTRY.names():
            assert name in err

    def test_csv_on_analysis_only_scenario_fails_cleanly(self, capsys,
                                                         tmp_path):
        path = tmp_path / "t2.csv"
        assert main(["scenarios", "run", "table2",
                     "--csv", str(path)]) == 2
        assert "no per-interval series" in capsys.readouterr().err
        assert not path.exists()

    def test_scale_on_measurement_scenario_fails_cleanly(self, capsys):
        assert main(["scenarios", "run", "scaling", "--scale", "2.0"]) == 2
        assert "no --scale knob" in capsys.readouterr().err

    def test_intervals_on_measurement_without_knob_fails_cleanly(
            self, capsys):
        assert main(["scenarios", "run", "scaling",
                     "--intervals", "4"]) == 2
        assert "no --intervals knob" in capsys.readouterr().err

    def test_overrides_on_fixed_inputs_scenario_fail_cleanly(self, capsys):
        assert main(["scenarios", "run", "table2", "--seed", "3"]) == 2
        assert "no --seed knob" in capsys.readouterr().err

    def test_zero_scale_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenarios", "run", "figure4", "--scale", "0"])
        assert "must be > 0" in capsys.readouterr().err

    def test_zero_intervals_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenarios", "run", "figure4", "--intervals", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_seed_zero_reaches_the_config(self):
        spec = REGISTRY.spec("table3", seed=0)
        assert spec.seed == 0
        assert spec.fleet.config.seed == 0

    def test_scenario_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_scenario_parser().parse_args([])


class TestScenariosDiffCLI:
    """`scenarios diff <a.json> <b.json>` — KPI drift between artifacts."""

    def _artifact(self, tmp_path, name, **kpi_overrides):
        kpis = {"avg_sla": 0.9, "profit_eur": 10.0, "n_migrations": 4,
                "run_s": 1.0}
        kpis.update(kpi_overrides)
        data = {"scenario": "unit", "description": "", "seed": 7,
                "timings": {}, "extras": {},
                "variants": {"dyn": {"kpis": kpis}}}
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_identical_artifacts_diff_clean(self, capsys, tmp_path):
        a = self._artifact(tmp_path, "a.json")
        b = self._artifact(tmp_path, "b.json")
        assert main(["scenarios", "diff", a, b, "--tol", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "variant dyn" in out and "avg_sla" in out

    def test_drift_reported_with_percentages(self, capsys, tmp_path):
        a = self._artifact(tmp_path, "a.json", avg_sla=0.5)
        b = self._artifact(tmp_path, "b.json", avg_sla=0.75)
        assert main(["scenarios", "diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "+50.00%" in out

    def test_tol_gate_fails_on_drift(self, capsys, tmp_path):
        a = self._artifact(tmp_path, "a.json", profit_eur=10.0)
        b = self._artifact(tmp_path, "b.json", profit_eur=12.0)
        assert main(["scenarios", "diff", a, b, "--tol", "5"]) == 1
        assert "exceeds --tol" in capsys.readouterr().err

    def test_timing_noise_never_gates(self, capsys, tmp_path):
        a = self._artifact(tmp_path, "a.json", run_s=1.0)
        b = self._artifact(tmp_path, "b.json", run_s=9.0)
        assert main(["scenarios", "diff", a, b, "--tol", "5"]) == 0

    def test_variant_filter(self, capsys, tmp_path):
        a = self._artifact(tmp_path, "a.json")
        b = self._artifact(tmp_path, "b.json")
        assert main(["scenarios", "diff", a, b, "--variant", "dyn"]) == 0
        assert main(["scenarios", "diff", a, b, "--variant", "nope"]) == 2
        assert "not in both artifacts" in capsys.readouterr().err

    def test_disjoint_variants_noted(self, capsys, tmp_path):
        a = self._artifact(tmp_path, "a.json")
        data = json.loads((tmp_path / "a.json").read_text())
        data["variants"]["extra"] = data["variants"].pop("dyn")
        b = tmp_path / "b.json"
        b.write_text(json.dumps(data))
        assert main(["scenarios", "diff", a, str(b)]) == 0
        out = capsys.readouterr().out
        assert "only in" in out

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        a = self._artifact(tmp_path, "a.json")
        assert main(["scenarios", "diff", a,
                     str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_artifact_json_fails_cleanly(self, capsys, tmp_path):
        a = self._artifact(tmp_path, "a.json")
        for i, payload in enumerate(("[1, 2, 3]",
                                     '{"variants": {"dyn": null}}',
                                     '{"variants": [1, 2]}')):
            bad = tmp_path / f"bad{i}.json"
            bad.write_text(payload)
            assert main(["scenarios", "diff", a, str(bad)]) == 2
            assert "not a scenario artifact" in capsys.readouterr().err

    def test_real_artifact_roundtrip(self, capsys, tmp_path):
        """diff consumes exactly what `scenarios run --json` writes."""
        path = tmp_path / "real.json"
        assert main(["scenarios", "run", "figure5", "--intervals", "8",
                     "--no-series", "--json", str(path)]) == 0
        capsys.readouterr()
        assert main(["scenarios", "diff", str(path), str(path),
                     "--tol", "0.001"]) == 0
        assert "variant follow" in capsys.readouterr().out


class TestServeCommand:
    def test_parser_defaults(self):
        from repro.cli import build_serve_parser
        args = build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1" and args.port == 8421
        assert args.preload == [] and args.estimator == "ml"
        assert args.max_batch == 32 and args.max_wait_ms == 2.0

    def test_unknown_preload_scenario_fails(self, capsys):
        assert main(["serve", "--preload", "not-a-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_negative_wait_fails(self, capsys):
        assert main(["serve", "--max-wait-ms", "-1"]) == 2
        assert "max-wait-ms" in capsys.readouterr().err

    def test_preload_parsing_reaches_serve(self, monkeypatch):
        """SCENARIO[:SESSION] entries resolve before the server starts."""
        import repro.service
        calls = {}

        def fake_serve(**kwargs):
            calls.update(kwargs)
            return 0

        monkeypatch.setattr(repro.service, "serve", fake_serve)
        assert main(["serve", "--port", "0",
                     "--preload", "quickstart",
                     "--preload", "quickstart:warm",
                     "--estimator", "oracle",
                     "--max-batch", "8", "--max-wait-ms", "1.5"]) == 0
        assert calls["preload"] == (("quickstart", "quickstart"),
                                    ("warm", "quickstart"))
        assert calls["estimator"] == "oracle"
        assert calls["max_batch"] == 8 and calls["max_wait_ms"] == 1.5
