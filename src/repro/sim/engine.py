"""Discrete-time simulation engine: the interval body, the loop, the history.

The paper runs 24-hour experiments with a scheduling round every 10
minutes (§IV).  :func:`begin_interval` opens each interval (tariffs,
failures, scheduler, placement); :func:`run_simulation` then plays the
interval's load and accounts energy, SLA and money.  An interval is
played by :meth:`~repro.sim.multidc.MultiDCSystem.step`, or per DC by
:class:`~repro.sim.sharding.ShardedFleet` with ``sharded=True``; both run
the one array kernel :func:`repro.sim.fleet.step_range`.

The per-interval :class:`~repro.sim.multidc.IntervalReport` objects are kept
in a :class:`RunHistory`, which exposes the aggregate series the paper plots
(SLA, watts, active PMs, migrations, money) as numpy arrays and reduces its
reports to the Table III summary metrics (avg EUR/h, avg W, avg SLA)
through the one KPI reduction of :mod:`repro.sim.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from .metrics import IntervalMetrics, RunSummary, metrics_of, summarize
from .monitor import Monitor
from .multidc import IntervalReport, MigrationEvent, MultiDCSystem
from .sharding import ShardedFleet
from ..workload.traces import WorkloadTrace

__all__ = ["Scheduler", "RunHistory", "RunSummary", "begin_interval",
           "run_simulation"]

#: A scheduler maps (system, trace, t) to a placement ``{vm_id: pm_id}``;
#: returning None (or an empty mapping) keeps the current placement.
Scheduler = Callable[[MultiDCSystem, WorkloadTrace, int],
                     Optional[Mapping[str, str]]]


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
    def metrics(self) -> List[IntervalMetrics]:
        """Each report reduced to its :class:`IntervalMetrics` record."""
        return [metrics_of(r) for r in self.reports]

    def to_rows(self) -> List[Dict[str, float]]:
        """One flat dict per interval (for DataFrames / CSV / plotting)."""
        return [m.to_row() for m in self.metrics()]

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
        return summarize(self.metrics())


def begin_interval(system: MultiDCSystem, trace: WorkloadTrace, t: int,
                   scheduler: Optional[Scheduler] = None,
                   failure_injector=None) -> List[MigrationEvent]:
    """Open interval ``t``: prices, failures, then the scheduling round.

    The one interval body, in the paper's order: apply the interval's
    tariffs (the scheduler and the accounting see the same prices), step
    the failure injector (orphaned VMs are re-placed in the same round),
    then run ``scheduler`` and apply its placement.  Returns the
    migrations the interval's accounting charges.
    """
    system.apply_tariffs(t)
    if failure_injector is not None:
        failure_injector.step(system, t)
    if scheduler is not None:
        proposal = scheduler(system, trace, t)
        if proposal:
            return system.apply_schedule(proposal)
    return []


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
        Optional :class:`repro.sim.failures.FailureInjector`, stepped by
        :func:`begin_interval` before the scheduler.
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
    history = RunHistory()
    for t in range(start, stop):
        due = (t - start) % schedule_every == 0
        migrations = begin_interval(system, trace, t,
                                    scheduler if due else None,
                                    failure_injector)
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
