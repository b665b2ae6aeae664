"""Per-DC sharded interval stepping behind a :class:`ShardedFleet` facade.

Nothing in an interval couples VMs across datacenters (grants are
per-host, response times per VM, power per PM, tariffs per DC), so a step
splits along DC boundaries into shards:

* :class:`FleetShard` is a contiguous ``[lo, hi)`` PM slice of the global
  :class:`~repro.sim.fleet.FleetState` (PM arrays are laid out in
  datacenter order, so shard slicing is free).
* :meth:`ShardedFleet.step_report` plays each shard through the same
  kernel as :meth:`~repro.sim.multidc.MultiDCSystem.step`
  (:func:`~repro.sim.fleet.step_range`, one call per shard) and merges
  the shard-local statistics into one
  :class:`~repro.sim.multidc.IntervalReport`.  Every per-VM and per-PM
  statistic equals the one ``step`` reports; only the report totals,
  summed shard by shard, can differ in the last bits.
* :meth:`ShardedFleet.step_metrics` is the bounded-memory mode: the same
  per-shard kernel without boxing, each shard reduced straight to a
  constant-size :class:`ShardMetrics` record, one
  :class:`~repro.sim.metrics.IntervalMetrics` returned.  Combined with a
  disk :class:`~repro.sim.metrics.MetricsSink`, peak memory stays flat in
  horizon length.

Both modes have the stepping side-effects schedulers depend on
(``pm.granted`` swaps, ``system.last_demands``, blackout consumption),
written by :func:`~repro.sim.fleet.write_steps` only after every shard
has computed: a step that raises in any shard writes nothing.

Cross-shard conservation laws (global KPIs equal the sum of shard KPIs; no
VM in two shards) are checked by :mod:`repro.arena.invariants`; the
per-shard reductions of the last step are kept on
:attr:`ShardedFleet.last_shard_metrics` / :attr:`ShardedFleet.last_unplaced`
for exactly that audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .fleet import (FleetState, RangeStep, step_range, unplaced_traced,
                    unplaced_vm_stats, write_steps)
from .metrics import IntervalMetrics
from .multidc import (IntervalReport, MigrationEvent, MultiDCSystem,
                      PMIntervalStats, VMIntervalStats)
from ..core.profit import ProfitBreakdown
from ..workload.traces import WorkloadTrace

__all__ = ["FleetShard", "ShardMetrics", "ShardedFleet"]


@dataclass(frozen=True)
class FleetShard:
    """One datacenter's contiguous PM slice of the global fleet arrays."""

    dc_index: int
    location: str
    lo: int
    hi: int

    @property
    def n_pms(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class ShardMetrics:
    """One shard's constant-size reduction of one interval.

    The cross-shard conservation laws are phrased over these records:
    every additive field sums (within float tolerance) to the global
    KPI of the same interval.
    """

    location: str
    n_pms: int
    n_placed: int           # VMs placed on this shard's PMs
    sla_sum: float          # sum of per-VM SLA over placed VMs
    rps_sum: float          # sum of aggregate rps over placed VMs
    revenue_eur: float
    migration_penalty_eur: float
    energy_cost_eur: float
    watts_sum: float
    energy_wh_sum: float
    n_pms_on: int


class ShardedFleet:
    """Facade: per-DC shards over one cached :class:`FleetState`.

    Build via :meth:`for_system` (cached on the system like the fleet
    snapshot itself).  Shards are views — no VM or PM data is copied.
    """

    def __init__(self, system: MultiDCSystem, trace: WorkloadTrace) -> None:
        self.system = system
        self.fleet = FleetState.for_system(system, trace)
        self.shards: List[FleetShard] = [
            FleetShard(di, self.fleet.locations[di], lo, hi)
            for di, (lo, hi) in enumerate(self.fleet.dc_pm_ranges)]
        #: Per-shard reductions of the last step (either mode), for the
        #: cross-shard conservation audit.
        self.last_shard_metrics: List[ShardMetrics] = []
        #: The unplaced-but-traced remainder of the last step: VMs in no
        #: shard (SLA 0, no revenue), folded into mean SLA and total rps.
        self.last_unplaced: Optional[ShardMetrics] = None

    @staticmethod
    def for_system(system: MultiDCSystem,
                   trace: WorkloadTrace) -> "ShardedFleet":
        """The cached facade for this pair, rebuilt when stale."""
        fleet = FleetState.for_system(system, trace)
        cached = system._sharded_cache
        if isinstance(cached, ShardedFleet) and cached.fleet is fleet:
            return cached
        sharded = ShardedFleet(system, trace)
        system._sharded_cache = sharded
        return sharded

    # -- audit accessors -------------------------------------------------------
    def shard_vm_ids(self) -> List[List[str]]:
        """Live per-shard VM id lists (walked from the placement state)."""
        fleet = self.fleet
        return [[vm_id for pm in fleet.pms[s.lo:s.hi] for vm_id in pm.vm_ids]
                for s in self.shards]

    # -- stepping --------------------------------------------------------------
    def step_report(self, trace: WorkloadTrace, t: int,
                    migrations: Optional[List[MigrationEvent]] = None
                    ) -> IntervalReport:
        """Sharded step, full report (the parity/diagnostic mode)."""
        current = self._current(trace)
        if current is not self:
            return current.step_report(trace, t, migrations)
        parts, unplaced = self._step(trace, t, box=True)
        vm_stats: Dict[str, VMIntervalStats] = {}
        pm_stats: Dict[str, PMIntervalStats] = {}
        for part in parts:
            vm_stats.update(part.vms)
            pm_stats.update(part.pms)
        vm_stats.update(unplaced_vm_stats(self.system, self.fleet, t,
                                          unplaced))
        shards = self.last_shard_metrics
        profit = ProfitBreakdown(
            revenue_eur=sum(s.revenue_eur for s in shards),
            migration_penalty_eur=sum(s.migration_penalty_eur
                                      for s in shards),
            energy_cost_eur=sum(s.energy_cost_eur for s in shards))
        return IntervalReport(t=t, interval_s=trace.interval_s,
                              vms=vm_stats, pms=pm_stats,
                              migrations=list(migrations or []),
                              profit=profit,
                              placement=self.system.placement())

    def step_metrics(self, trace: WorkloadTrace, t: int,
                     migrations: Optional[List[MigrationEvent]] = None
                     ) -> IntervalMetrics:
        """Sharded step, KPI-only (the bounded-memory mode)."""
        current = self._current(trace)
        if current is not self:
            return current.step_metrics(trace, t, migrations)
        _parts, unplaced = self._step(trace, t, box=False)
        migrations = migrations or []
        shards = self.last_shard_metrics
        rest = [self.last_unplaced] if self.last_unplaced is not None else []
        revenue = sum(s.revenue_eur for s in shards)
        penalty = sum(s.migration_penalty_eur for s in shards)
        cost = sum(s.energy_cost_eur for s in shards)
        n_reported = sum(s.n_placed for s in shards) + len(unplaced)
        return IntervalMetrics(
            t=t, interval_s=trace.interval_s,
            mean_sla=(sum(s.sla_sum for s in shards) / n_reported
                      if n_reported else 1.0),
            total_watts=sum(s.watts_sum for s in shards),
            total_energy_wh=sum(s.energy_wh_sum for s in shards),
            n_pms_on=sum(s.n_pms_on for s in shards),
            n_migrations=len(migrations),
            n_inter_dc_migrations=sum(1 for m in migrations if m.inter_dc),
            revenue_eur=revenue, migration_penalty_eur=penalty,
            energy_cost_eur=cost, profit_eur=revenue - penalty - cost,
            total_rps=sum(s.rps_sum for s in shards + rest))

    def _current(self, trace: WorkloadTrace) -> "ShardedFleet":
        """This facade, or a rebuilt one when the trace or the topology
        changed under it (a held facade never steps stale arrays)."""
        if self.fleet is FleetState.for_system(self.system, trace):
            return self
        return ShardedFleet.for_system(self.system, trace)

    def _step(self, trace: WorkloadTrace, t: int, box: bool):
        """Play every shard through :func:`step_range`, write them back
        together and record the per-shard reductions; returns
        ``(parts, unplaced)``."""
        fleet = self.fleet
        parts: List[RangeStep] = [
            step_range(self.system, fleet, t, trace.interval_s, shard.lo,
                       shard.hi, box)
            for shard in self.shards]
        write_steps(self.system, parts)
        self.last_shard_metrics = [
            ShardMetrics(
                location=shard.location, n_pms=shard.n_pms,
                n_placed=len(part.placed), sla_sum=float(part.sla.sum()),
                rps_sum=float(part.rps.sum()),
                revenue_eur=float(part.revenue.sum()),
                migration_penalty_eur=part.penalty_eur,
                energy_cost_eur=float(part.energy_cost.sum()),
                watts_sum=float(part.watts.sum()),
                energy_wh_sum=float(part.energy_wh.sum()),
                n_pms_on=int(part.on.sum()))
            for shard, part in zip(self.shards, parts)]
        # The unplaced-but-traced remainder: SLA 0, no revenue, but its
        # load exists and is folded into mean SLA and total rps.
        unplaced = unplaced_traced(fleet, [part.placed for part in parts])
        self.last_unplaced = ShardMetrics(
            location="<unplaced>", n_pms=0, n_placed=0,
            sla_sum=0.0, rps_sum=float(fleet.agg_rps[unplaced, t].sum()),
            revenue_eur=0.0, migration_penalty_eur=0.0,
            energy_cost_eur=0.0, watts_sum=0.0, energy_wh_sum=0.0,
            n_pms_on=0) if len(unplaced) else None
        return parts, unplaced
