"""The MetricsSink contract: streamed KPIs == in-memory RunHistory KPIs.

The seam's whole value is that a streamed run is *indistinguishable* from
an in-memory one at the KPI level: the sinks and ``RunHistory.summary``
run the one reduction (``repro.sim.metrics.summarize``/``kpi_series``),
so summaries and series compare bit-for-bit against the reports' own
series, and the disk sinks' artifacts match ``RunHistory.to_rows``
row-for-row.
"""

import csv
import json

import numpy as np
import pytest

from repro.core.profit import PriceBook
from repro.sim.datacenter import PAPER_ENERGY_PRICES, build_datacenter
from repro.sim.engine import run_simulation
from repro.sim.machines import VirtualMachine
from repro.sim.metrics import (CsvMetricsSink, InMemoryMetricsSink,
                               IntervalMetrics, JsonlMetricsSink,
                               MetricsSink, STREAM_SUFFIXES, metrics_of,
                               open_sink)
from repro.sim.multidc import MultiDCSystem
from repro.sim.network import paper_network_model
from repro.workload.traces import SourceSeries, WorkloadTrace


def make_system(n_vms=12, pms_per_dc=2, T=6, seed=3):
    rng = np.random.default_rng(seed)
    locs = ["BCN", "BST", "BNG", "BRS"]
    dcs = [build_datacenter(loc, pms_per_dc) for loc in locs]
    vms = {f"vm{i}": VirtualMachine(vm_id=f"vm{i}") for i in range(n_vms)}
    system = MultiDCSystem(
        datacenters=dcs, vms=vms, network=paper_network_model(),
        prices=PriceBook(energy_price_eur_kwh=PAPER_ENERGY_PRICES))
    trace = WorkloadTrace(interval_s=600.0)
    for i, vm_id in enumerate(vms):
        for src in locs[: 1 + i % len(locs)]:
            trace.add(vm_id, src, SourceSeries(
                rps=rng.uniform(0.0, 30.0, T),
                bytes_per_req=rng.uniform(1000.0, 8000.0, T),
                cpu_time_per_req=rng.uniform(0.005, 0.05, T)))
    pm_ids = [pm.pm_id for dc in dcs for pm in dc.pms]
    system.deploy_many({vm_id: pm_ids[i % len(pm_ids)]
                        for i, vm_id in enumerate(vms)})
    return system, trace


def run_with_sink(sink, seed=3, T=6):
    system, trace = make_system(T=T, seed=seed)
    history = run_simulation(system, trace, sink=sink)
    return history, sink


class TestReduction:
    def test_summary_bit_identical_to_history(self):
        history, sink = run_with_sink(InMemoryMetricsSink())
        assert sink.summary() == history.summary()

    def test_series_bit_identical_to_history(self):
        history, sink = run_with_sink(InMemoryMetricsSink())
        # Read straight off the reports, not through the KPI records.
        expected = {
            "sla": history.sla_series(),
            "watts": history.watts_series(),
            "pms_on": history.pms_on_series(),
            "migrations": history.migrations_series(),
            "profit_eur": history.profit_series(),
            "revenue_eur": history.series(lambda r: r.profit.revenue_eur),
            "energy_cost_eur": history.series(
                lambda r: r.profit.energy_cost_eur),
            "total_rps": history.total_rps_series(),
        }
        got = sink.series()
        assert set(got) == set(expected)
        for key, arr in expected.items():
            assert np.array_equal(got[key], arr), key

    def test_metrics_of_reads_the_report_kpis(self):
        history, _ = run_with_sink(InMemoryMetricsSink())
        r = history.reports[0]
        m = metrics_of(r)
        assert m.t == r.t
        assert m.mean_sla == r.mean_sla
        assert m.total_watts == r.total_watts
        assert m.profit_eur == r.profit.profit_eur
        assert m.total_rps == sum(v.load.rps for v in r.vms.values())

    def test_to_row_matches_history_rows(self):
        history, sink = run_with_sink(InMemoryMetricsSink())
        rows = history.to_rows()
        streamed = [m.to_row() for m in sink._metrics]
        assert streamed == rows

    def test_empty_sink_summary_matches_empty_history(self):
        from repro.sim.engine import RunHistory
        assert MetricsSink().summary() == RunHistory().summary()
        assert len(MetricsSink()) == 0
        assert MetricsSink().interval_s == 0.0

    def test_mixed_interval_lengths_rejected(self):
        sink = MetricsSink()
        row = dict(mean_sla=1.0, total_watts=0.0, total_energy_wh=0.0,
                   n_pms_on=0, n_migrations=0, n_inter_dc_migrations=0,
                   revenue_eur=0.0, migration_penalty_eur=0.0,
                   energy_cost_eur=0.0, profit_eur=0.0, total_rps=0.0)
        sink.on_metrics(IntervalMetrics(t=0, interval_s=600.0, **row))
        with pytest.raises(ValueError, match="mixed interval"):
            sink.on_metrics(IntervalMetrics(t=1, interval_s=300.0, **row))


class TestDiskSinks:
    def test_jsonl_rows_match_history(self, tmp_path):
        path = tmp_path / "kpis.jsonl"
        history, sink = run_with_sink(JsonlMetricsSink(path))
        sink.close()
        with open(path) as fh:
            rows = [json.loads(line) for line in fh]
        assert rows == history.to_rows()

    def test_csv_rows_match_history_csv(self, tmp_path):
        streamed = tmp_path / "streamed.csv"
        history, sink = run_with_sink(CsvMetricsSink(streamed))
        sink.close()
        in_memory = tmp_path / "memory.csv"
        history.to_csv(in_memory)
        assert streamed.read_text() == in_memory.read_text()

    def test_close_twice_is_safe(self, tmp_path):
        _, sink = run_with_sink(JsonlMetricsSink(tmp_path / "k.jsonl"))
        sink.close()
        sink.close()
        _, sink = run_with_sink(CsvMetricsSink(tmp_path / "k.csv"))
        sink.close()
        sink.close()

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "kpis.jsonl"
        with JsonlMetricsSink(path) as sink:
            run_with_sink(sink)
        assert sink._fh is None
        assert path.read_text()

    def test_disk_sink_still_answers_summary(self, tmp_path):
        history, sink = run_with_sink(JsonlMetricsSink(tmp_path / "k.jsonl"))
        sink.close()
        assert sink.summary() == history.summary()


class TestOpenSink:
    def test_dispatch_by_suffix(self, tmp_path):
        assert isinstance(open_sink(tmp_path / "a.jsonl"), JsonlMetricsSink)
        assert isinstance(open_sink(tmp_path / "a.csv"), CsvMetricsSink)

    def test_path_attribute_recorded(self, tmp_path):
        sink = open_sink(tmp_path / "a.jsonl")
        assert sink.path == str(tmp_path / "a.jsonl")

    @pytest.mark.parametrize("name", ["a.parquet", "a.json", "a", "a.csv.gz"])
    def test_unknown_suffix_rejected(self, tmp_path, name):
        with pytest.raises(ValueError, match="unknown stream format"):
            open_sink(tmp_path / name)

    def test_suffixes_constant_matches_dispatch(self):
        assert STREAM_SUFFIXES == (".jsonl", ".csv")
