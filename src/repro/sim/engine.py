"""Discrete-time simulation engine and run history.

The paper runs 24-hour experiments with a scheduling round every 10 minutes.
:func:`run_simulation` is that loop: each interval, optionally invoke the
scheduler, execute its placement (migrations included), then play the
interval's load and account energy, SLA and money.  An interval is played
by :meth:`~repro.sim.multidc.MultiDCSystem.step`, or per datacenter by
:class:`~repro.sim.sharding.ShardedFleet` with ``sharded=True``; both run
the one array kernel :func:`repro.sim.fleet.step_range`.

The per-interval :class:`~repro.sim.multidc.IntervalReport` objects are kept
in a :class:`RunHistory`, which exposes the aggregate series the paper plots
(SLA, watts, active PMs, migrations, money) as numpy arrays and computes the
Table III summary metrics (avg EUR/h, avg W, avg SLA).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from ..core.profit import ProfitBreakdown
from .monitor import Monitor
from .multidc import IntervalReport, MultiDCSystem
from ..workload.traces import WorkloadTrace

__all__ = ["Scheduler", "RunHistory", "RunSummary", "run_simulation"]

#: A scheduler maps (system, trace, t) to a placement ``{vm_id: pm_id}``;
#: returning None (or an empty mapping) keeps the current placement.
Scheduler = Callable[[MultiDCSystem, WorkloadTrace, int],
                     Optional[Mapping[str, str]]]


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


@dataclass
class RunHistory:
    """Chronological interval reports with array accessors."""

    reports: List[IntervalReport] = field(default_factory=list)

    def append(self, report: IntervalReport) -> None:
        if self.reports and report.interval_s != self.reports[0].interval_s:
            raise ValueError("mixed interval lengths in one run")
        self.reports.append(report)

    def __len__(self) -> int:
        return len(self.reports)

    @property
    def interval_s(self) -> float:
        return self.reports[0].interval_s if self.reports else 0.0

    # -- series ---------------------------------------------------------------
    def series(self, fn: Callable[[IntervalReport], float]) -> np.ndarray:
        return np.array([fn(r) for r in self.reports], dtype=float)

    def sla_series(self) -> np.ndarray:
        return self.series(lambda r: r.mean_sla)

    def watts_series(self) -> np.ndarray:
        return self.series(lambda r: r.total_watts)

    def pms_on_series(self) -> np.ndarray:
        return self.series(lambda r: r.n_pms_on)

    def migrations_series(self) -> np.ndarray:
        return self.series(lambda r: r.n_migrations)

    def profit_series(self) -> np.ndarray:
        return self.series(lambda r: r.profit.profit_eur)

    def revenue_series(self) -> np.ndarray:
        return self.series(lambda r: r.profit.revenue_eur)

    def energy_cost_series(self) -> np.ndarray:
        return self.series(lambda r: r.profit.energy_cost_eur)

    def vm_sla_series(self, vm_id: str) -> np.ndarray:
        return self.series(
            lambda r: r.vms[vm_id].sla if vm_id in r.vms else np.nan)

    def vm_location_series(self, vm_id: str) -> List[Optional[str]]:
        out: List[Optional[str]] = []
        for r in self.reports:
            out.append(r.vms[vm_id].location if vm_id in r.vms else None)
        return out

    def total_rps_series(self) -> np.ndarray:
        return self.series(
            lambda r: sum(v.load.rps for v in r.vms.values()))

    # -- export -----------------------------------------------------------------
    def to_rows(self) -> List[Dict[str, float]]:
        """One flat dict per interval (for DataFrames / CSV / plotting)."""
        rows: List[Dict[str, float]] = []
        for r in self.reports:
            rows.append({
                "t": r.t,
                "mean_sla": r.mean_sla,
                "total_watts": r.total_watts,
                "energy_wh": r.total_energy_wh,
                "pms_on": r.n_pms_on,
                "migrations": r.n_migrations,
                "inter_dc_migrations": r.n_inter_dc_migrations,
                "revenue_eur": r.profit.revenue_eur,
                "migration_penalty_eur": r.profit.migration_penalty_eur,
                "energy_cost_eur": r.profit.energy_cost_eur,
                "profit_eur": r.profit.profit_eur,
                "total_rps": sum(v.load.rps for v in r.vms.values()),
            })
        return rows

    def to_csv(self, path) -> None:
        """Write the interval rows as CSV (stdlib only)."""
        import csv
        rows = self.to_rows()
        if not rows:
            raise ValueError("empty history")
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    # -- summary ----------------------------------------------------------------
    def summary(self) -> RunSummary:
        if not self.reports:
            return RunSummary(0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)
        hours = len(self.reports) * self.interval_s / 3600.0
        total = ProfitBreakdown()
        for r in self.reports:
            total = total + r.profit
        return RunSummary(
            n_intervals=len(self.reports),
            hours=hours,
            avg_sla=float(np.mean(self.sla_series())),
            avg_watts=float(np.mean(self.watts_series())),
            total_energy_wh=float(sum(r.total_energy_wh
                                      for r in self.reports)),
            revenue_eur=total.revenue_eur,
            migration_penalty_eur=total.migration_penalty_eur,
            energy_cost_eur=total.energy_cost_eur,
            profit_eur=total.profit_eur,
            n_migrations=int(sum(r.n_migrations for r in self.reports)),
            n_inter_dc_migrations=int(sum(r.n_inter_dc_migrations
                                          for r in self.reports)))


def run_simulation(system: MultiDCSystem, trace: WorkloadTrace,
                   scheduler: Optional[Scheduler] = None,
                   schedule_every: int = 1,
                   monitor: Optional[Monitor] = None,
                   failure_injector=None,
                   start: int = 0,
                   stop: Optional[int] = None,
                   sink=None,
                   keep_reports: bool = True,
                   sharded: bool = False) -> RunHistory:
    """Run the interval loop over ``trace[start:stop]``.

    Parameters
    ----------
    scheduler:
        Invoked every ``schedule_every`` intervals *before* the interval is
        played, mirroring the paper's 10-minute scheduling rounds.  ``None``
        keeps the initial placement throughout (the static baseline).
    monitor:
        When given, records noisy observations of every interval (for ML
        training harvests).
    failure_injector:
        Optional :class:`repro.sim.failures.FailureInjector`; stepped before
        the scheduler each interval, so orphaned VMs can be re-placed in the
        same round.
    sink:
        Optional :class:`~repro.sim.metrics.MetricsSink`; receives one
        :class:`~repro.sim.metrics.IntervalMetrics` per interval as it is
        played (streaming KPIs).  The caller closes the sink.
    keep_reports:
        ``False`` drops each interval's report after feeding the sink /
        monitor, so peak memory stays flat in horizon length; the returned
        history is then empty (use the sink's ``summary()``/``series()``).
        Requires ``sink``.
    sharded:
        Step intervals per DC through
        :class:`~repro.sim.sharding.ShardedFleet` instead of
        :meth:`MultiDCSystem.step` (the same kernel, one call per DC).
        With ``keep_reports=False``, no monitor and a sink, each interval
        reduces straight to KPIs with no per-VM boxing at all; otherwise
        the sharded path builds full reports whose per-VM and per-PM
        statistics equal the monolithic ones.
    """
    if schedule_every < 1:
        raise ValueError("schedule_every must be >= 1")
    if not keep_reports and sink is None:
        raise ValueError("keep_reports=False requires a sink")
    stop = trace.n_intervals if stop is None else stop
    if not 0 <= start <= stop <= trace.n_intervals:
        raise ValueError(f"bad range [{start}, {stop})")
    if sink is not None or sharded:
        from .metrics import metrics_of  # deferred: metrics imports us
        from .sharding import ShardedFleet
    history = RunHistory()
    for t in range(start, stop):
        migrations = []
        # Time-varying tariffs must be visible to the scheduler *and* the
        # accounting of the same interval.
        system.apply_tariffs(t)
        if failure_injector is not None:
            failure_injector.step(system, t)
        if scheduler is not None and (t - start) % schedule_every == 0:
            proposal = scheduler(system, trace, t)
            if proposal:
                migrations = system.apply_schedule(proposal)
        if sharded:
            shf = ShardedFleet.for_system(system, trace)
            if keep_reports or monitor is not None:
                report = shf.step_report(trace, t, migrations=migrations)
            else:
                sink.on_metrics(shf.step_metrics(trace, t,
                                                 migrations=migrations))
                continue
        else:
            report = system.step(trace, t, migrations=migrations)
        if monitor is not None:
            monitor.observe(report)
        if sink is not None:
            sink.on_metrics(metrics_of(report))
        if keep_reports:
            history.append(report)
    return history
