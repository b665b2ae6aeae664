"""Per-interval KPI records, the run's one KPI reduction, and the sinks.

Every interval a run plays is reduced to one constant-size
:class:`IntervalMetrics` record (:func:`metrics_of` for a full
:class:`~repro.sim.multidc.IntervalReport`, or straight from the sharded
kernel).  :func:`summarize` and :func:`kpi_series` are the only reduction
of those records to the run's aggregate KPIs (:class:`RunSummary`, the
paper's Table III columns) and per-interval series: a
:class:`MetricsSink` applies them to the records it received and
:class:`~repro.sim.engine.RunHistory` to the records of its reports, so
a streamed run and an in-memory run cannot disagree.

A :class:`MetricsSink` keeps only the records (a dozen scalars per
interval), never the O(n_vms) reports, so at 50–100k VMs peak memory
stays flat in horizon length; the disk sinks (:class:`JsonlMetricsSink`,
:class:`CsvMetricsSink`) also append each record to a file as it arrives.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.profit import ProfitBreakdown

__all__ = [
    "RunSummary",
    "IntervalMetrics",
    "metrics_of",
    "summarize",
    "SERIES_FIELDS",
    "kpi_series",
    "MetricsSink",
    "InMemoryMetricsSink",
    "JsonlMetricsSink",
    "CsvMetricsSink",
    "open_sink",
    "STREAM_SUFFIXES",
]


@dataclass(frozen=True)
class RunSummary:
    """Aggregates over a whole run (the paper's Table III columns)."""

    n_intervals: int
    hours: float
    avg_sla: float
    avg_watts: float
    total_energy_wh: float
    revenue_eur: float
    migration_penalty_eur: float
    energy_cost_eur: float
    profit_eur: float
    n_migrations: int
    n_inter_dc_migrations: int

    @property
    def avg_eur_per_hour(self) -> float:
        """Average net profit rate, EUR/h (Table III 'Avg Euro/h')."""
        return self.profit_eur / self.hours if self.hours > 0 else 0.0

    @property
    def avg_revenue_per_hour(self) -> float:
        return self.revenue_eur / self.hours if self.hours > 0 else 0.0


@dataclass(frozen=True)
class IntervalMetrics:
    """Constant-size per-interval KPI record (what the sinks stream).

    :meth:`RunHistory.to_rows` is :meth:`to_row` of each report's record,
    so a streamed JSONL/CSV artifact row-for-row matches
    ``history.to_csv()`` output for the same run.
    """

    t: int
    interval_s: float
    mean_sla: float
    total_watts: float
    total_energy_wh: float
    n_pms_on: int
    n_migrations: int
    n_inter_dc_migrations: int
    revenue_eur: float
    migration_penalty_eur: float
    energy_cost_eur: float
    profit_eur: float
    total_rps: float

    def to_row(self) -> Dict[str, float]:
        """Flat dict with the :meth:`RunHistory.to_rows` key schema."""
        return {
            "t": self.t,
            "mean_sla": self.mean_sla,
            "total_watts": self.total_watts,
            "energy_wh": self.total_energy_wh,
            "pms_on": self.n_pms_on,
            "migrations": self.n_migrations,
            "inter_dc_migrations": self.n_inter_dc_migrations,
            "revenue_eur": self.revenue_eur,
            "migration_penalty_eur": self.migration_penalty_eur,
            "energy_cost_eur": self.energy_cost_eur,
            "profit_eur": self.profit_eur,
            "total_rps": self.total_rps,
        }


def metrics_of(report) -> IntervalMetrics:
    """Reduce an :class:`~repro.sim.multidc.IntervalReport` to its KPIs.

    ``RunHistory`` reduces its reports through this same record, so
    feeding ``metrics_of(report)`` to a sink is equivalent to appending
    the report to a history — minus the O(n_vms) per-VM stats retention.
    """
    return IntervalMetrics(
        t=report.t,
        interval_s=report.interval_s,
        mean_sla=report.mean_sla,
        total_watts=report.total_watts,
        total_energy_wh=report.total_energy_wh,
        n_pms_on=report.n_pms_on,
        n_migrations=report.n_migrations,
        n_inter_dc_migrations=report.n_inter_dc_migrations,
        revenue_eur=report.profit.revenue_eur,
        migration_penalty_eur=report.profit.migration_penalty_eur,
        energy_cost_eur=report.profit.energy_cost_eur,
        profit_eur=report.profit.profit_eur,
        total_rps=sum(v.load.rps for v in report.vms.values()),
    )


def summarize(metrics: Sequence[IntervalMetrics]) -> RunSummary:
    """The run's aggregate KPIs from its interval records, in order."""
    if not metrics:
        return RunSummary(0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)
    total = ProfitBreakdown()
    for x in metrics:
        total = total + ProfitBreakdown(
            revenue_eur=x.revenue_eur,
            migration_penalty_eur=x.migration_penalty_eur,
            energy_cost_eur=x.energy_cost_eur)
    return RunSummary(
        n_intervals=len(metrics),
        hours=len(metrics) * metrics[0].interval_s / 3600.0,
        avg_sla=float(np.mean(np.array([x.mean_sla for x in metrics],
                                       dtype=float))),
        avg_watts=float(np.mean(np.array([x.total_watts for x in metrics],
                                         dtype=float))),
        total_energy_wh=float(sum(x.total_energy_wh for x in metrics)),
        revenue_eur=total.revenue_eur,
        migration_penalty_eur=total.migration_penalty_eur,
        energy_cost_eur=total.energy_cost_eur,
        profit_eur=total.profit_eur,
        n_migrations=int(sum(x.n_migrations for x in metrics)),
        n_inter_dc_migrations=int(sum(x.n_inter_dc_migrations
                                      for x in metrics)))


#: Per-interval series key (as the scenario engine names it) -> the
#: :class:`IntervalMetrics` field it holds.
SERIES_FIELDS = {"sla": "mean_sla", "watts": "total_watts",
                 "pms_on": "n_pms_on", "migrations": "n_migrations",
                 "profit_eur": "profit_eur", "revenue_eur": "revenue_eur",
                 "energy_cost_eur": "energy_cost_eur",
                 "total_rps": "total_rps"}


def kpi_series(metrics: Sequence[IntervalMetrics]) -> Dict[str, np.ndarray]:
    """Per-interval KPI series, keyed like the scenario engine's."""
    return {key: np.array([getattr(x, name) for x in metrics], dtype=float)
            for key, name in SERIES_FIELDS.items()}


class MetricsSink:
    """Receives one :class:`IntervalMetrics` per simulated interval.

    Contract:

    - :meth:`on_metrics` is called once per interval, in chronological
      order, with a constant-size record; implementations must not retain
      O(n_vms) state.
    - :meth:`summary` / :meth:`series` apply the one reduction
      (:func:`summarize` / :func:`kpi_series`) to the metrics seen so
      far, the same code :meth:`RunHistory.summary` runs.
    - :meth:`close` flushes and releases any resources; calling it twice
      is safe.
    """

    def __init__(self) -> None:
        self._metrics: List[IntervalMetrics] = []

    # -- ingestion ------------------------------------------------------------
    def on_metrics(self, metrics: IntervalMetrics) -> None:
        if self._metrics and metrics.interval_s != self._metrics[0].interval_s:
            raise ValueError("mixed interval lengths in one run")
        self._metrics.append(metrics)

    def close(self) -> None:  # pragma: no cover - overridden by disk sinks
        pass

    # -- accessors ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    @property
    def interval_s(self) -> float:
        return self._metrics[0].interval_s if self._metrics else 0.0

    def series(self) -> Dict[str, np.ndarray]:
        """Per-interval KPI series keyed like the scenario engine's."""
        return kpi_series(self._metrics)

    def summary(self) -> RunSummary:
        """The run's aggregate KPIs over the metrics seen so far."""
        return summarize(self._metrics)

    # -- context management ----------------------------------------------------
    def __enter__(self) -> "MetricsSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InMemoryMetricsSink(MetricsSink):
    """Default sink: scalar series in memory, nothing on disk."""


class JsonlMetricsSink(MetricsSink):
    """Appends one JSON object per interval to ``path`` as it arrives."""

    def __init__(self, path) -> None:
        super().__init__()
        self.path = str(path)
        self._fh = open(self.path, "w")

    def on_metrics(self, metrics: IntervalMetrics) -> None:
        super().on_metrics(metrics)
        self._fh.write(json.dumps(metrics.to_row(), sort_keys=True) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class CsvMetricsSink(MetricsSink):
    """Appends one CSV row per interval to ``path`` as it arrives.

    Column order matches :meth:`RunHistory.to_csv` so streamed and
    in-memory CSV artifacts are interchangeable.
    """

    def __init__(self, path) -> None:
        super().__init__()
        self.path = str(path)
        self._fh = open(self.path, "w", newline="")
        self._writer: Optional[csv.DictWriter] = None

    def on_metrics(self, metrics: IntervalMetrics) -> None:
        super().on_metrics(metrics)
        row = metrics.to_row()
        if self._writer is None:
            self._writer = csv.DictWriter(self._fh, fieldnames=list(row))
            self._writer.writeheader()
        self._writer.writerow(row)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


#: Stream file suffixes ``open_sink`` understands.
STREAM_SUFFIXES = (".jsonl", ".csv")


def open_sink(path) -> MetricsSink:
    """Open a disk sink chosen by file suffix (``.jsonl`` or ``.csv``)."""
    p = str(path)
    if p.endswith(".jsonl"):
        return JsonlMetricsSink(p)
    if p.endswith(".csv"):
        return CsvMetricsSink(p)
    raise ValueError(
        f"unknown stream format {p!r}: expected a path ending in "
        + " or ".join(STREAM_SUFFIXES))
