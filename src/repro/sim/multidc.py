"""The multi-datacenter system: global state, migrations, accounting.

:class:`MultiDCSystem` ties together the substrates — datacenters with PMs,
VM registry, network model, demand ground truth, response-time ground truth
and tariffs — and advances in scheduling intervals:

1. a scheduler proposes a placement (``{vm_id: pm_id}``);
2. :meth:`apply_schedule` executes it, recording migrations (a migrating VM
   is fully unavailable for the freeze+transfer+restore duration — the
   paper's pessimistic penalty model) and powering empty hosts off;
3. :meth:`step` plays one interval of load: grants resources on every host
   (Figure 3 constraint 5.2, proportional sharing under contention),
   computes per-source response times (constraints 6.1-6.3), SLA fulfillment
   (constraint 7), power (constraint 3) and the money flows of the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..core.profit import (PriceBook, ProfitBreakdown, energy_cost_eur,
                           migration_penalty_eur, revenue_eur)
from ..core.sla import SLAContract, weighted_sla
from .datacenter import DataCenter
from .demand import DemandModel, LoadVector
from .machines import PhysicalMachine, Resources, VirtualMachine
from .network import NetworkModel
from .rtmodel import ResponseTimeModel
from .tariffs import TariffSchedule
from ..workload.traces import WorkloadTrace

__all__ = ["MigrationEvent", "VMIntervalStats", "PMIntervalStats",
           "IntervalReport", "MultiDCSystem", "proportional_allocation",
           "proportional_allocation_batch"]


@dataclass(frozen=True)
class MigrationEvent:
    """One executed VM move."""

    vm_id: str
    from_pm: str
    to_pm: str
    from_location: str
    to_location: str
    seconds: float
    inter_dc: bool


@dataclass
class VMIntervalStats:
    """Per-VM outcome of one interval."""

    vm_id: str
    pm_id: str
    location: str
    load: LoadVector
    required: Resources
    given: Resources
    process_rt_s: float
    rt_by_source: Dict[str, float]
    sla_process: float      # fulfillment at process RT only (no WAN transport)
    sla_raw: float          # before migration blackout
    sla: float              # after blackout
    blackout_fraction: float
    queue_len: float
    revenue_eur: float


@dataclass
class PMIntervalStats:
    """Per-PM outcome of one interval."""

    pm_id: str
    location: str
    on: bool
    n_vms: int
    sum_vm_cpu: float
    pm_cpu: float
    facility_watts: float
    energy_wh: float
    energy_cost_eur: float


@dataclass
class IntervalReport:
    """Everything one interval produced, plus system-level aggregates."""

    t: int
    interval_s: float
    vms: Dict[str, VMIntervalStats]
    pms: Dict[str, PMIntervalStats]
    migrations: List[MigrationEvent]
    profit: ProfitBreakdown
    placement: Dict[str, str]

    @property
    def mean_sla(self) -> float:
        if not self.vms:
            return 1.0
        return float(np.mean([v.sla for v in self.vms.values()]))

    @property
    def total_watts(self) -> float:
        return float(sum(p.facility_watts for p in self.pms.values()))

    @property
    def total_energy_wh(self) -> float:
        return float(sum(p.energy_wh for p in self.pms.values()))

    @property
    def n_pms_on(self) -> int:
        return sum(1 for p in self.pms.values() if p.on)

    @property
    def n_migrations(self) -> int:
        return len(self.migrations)

    @property
    def n_inter_dc_migrations(self) -> int:
        return sum(1 for m in self.migrations if m.inter_dc)


def proportional_allocation(capacity: Resources,
                            demands: Mapping[str, Resources],
                            caps: Optional[Mapping[str, Resources]] = None
                            ) -> Dict[str, Resources]:
    """Figure 3 constraint 5.2: split a host among its VMs' demands.

    Work-conserving hypervisor sharing:

    * **CPU and bandwidth** burst: spare capacity is handed out pro-rata to
      demand, so each VM's grant is ``demand * capacity / total_demand``
      when the host is under-committed (its *stress*, demand over grant,
      then equals host utilization) and scales down proportionally when
      over-committed.
    * **Memory** is granted at demand when it fits (holding pages beyond
      the working set buys nothing) and proportionally when it does not.

    Per-VM caps (the VM's configured maximum) bound every grant; capacity
    freed by capped VMs is re-offered to the rest.
    """
    if not demands:
        return {}
    capped: Dict[str, Resources] = {}
    for vm_id, d in demands.items():
        cap = caps.get(vm_id) if caps else None
        if cap is not None:
            d = Resources(min(d.cpu, cap.cpu), min(d.mem, cap.mem),
                          min(d.bw, cap.bw))
        capped[vm_id] = d.clip_nonnegative()

    vm_ids = list(capped)

    def burst_dim(dim_demands: np.ndarray, dim_caps: np.ndarray,
                  dim_capacity: float) -> np.ndarray:
        total = float(dim_demands.sum())
        # Guard against denormal totals: capacity/total would overflow.
        if total <= 1e-9:
            return np.zeros_like(dim_demands)
        grants = dim_demands * min(1.0, dim_capacity / total)
        if total < dim_capacity:
            # Water-fill the spare pro-rata, respecting per-VM caps.
            grants = np.minimum(dim_demands * (dim_capacity / total),
                                dim_caps)
            # Capacity released by capped VMs goes back to the others.
            for _ in range(len(grants)):
                spare = dim_capacity - float(grants.sum())
                room = dim_caps - grants
                takers = (room > 1e-12) & (dim_demands > 0)
                if spare <= 1e-9 or not takers.any():
                    break
                share = dim_demands[takers] / dim_demands[takers].sum()
                grants[takers] = np.minimum(
                    grants[takers] + spare * share, dim_caps[takers])
        return grants

    def mem_dim(dim_demands: np.ndarray, dim_capacity: float) -> np.ndarray:
        total = float(dim_demands.sum())
        if total <= dim_capacity or total <= 1e-9:
            return dim_demands.copy()
        return dim_demands * (dim_capacity / total)

    inf = float("inf")
    d_cpu = np.array([capped[v].cpu for v in vm_ids])
    d_mem = np.array([capped[v].mem for v in vm_ids])
    d_bw = np.array([capped[v].bw for v in vm_ids])
    c_cpu = np.array([(caps[v].cpu if caps and v in caps else inf)
                      for v in vm_ids])
    c_bw = np.array([(caps[v].bw if caps and v in caps else inf)
                     for v in vm_ids])
    g_cpu = burst_dim(d_cpu, c_cpu, capacity.cpu)
    g_bw = burst_dim(d_bw, c_bw, capacity.bw)
    g_mem = mem_dim(d_mem, capacity.mem)
    return {v: Resources(float(g_cpu[i]), float(g_mem[i]), float(g_bw[i]))
            for i, v in enumerate(vm_ids)}


def _seg_sum(values: np.ndarray, seg: np.ndarray, n: int) -> np.ndarray:
    """Per-host sums of per-VM values (``seg[i]`` is VM ``i``'s host index)."""
    return np.bincount(seg, weights=values, minlength=n)


def _burst_dim_seg(d: np.ndarray, c: np.ndarray, cap: np.ndarray,
                   seg: np.ndarray, n_hosts: int) -> np.ndarray:
    """Segmented twin of the scalar allocator's ``burst_dim``.

    Runs the same arithmetic — pro-rata scaling when over-committed,
    cap-respecting water-fill of the spare when under-committed — for every
    host at once.  The redistribution loop is shared: each pass updates only
    hosts that still have spare capacity and uncapped takers, exactly the
    hosts whose scalar loop would not have broken yet.
    """
    total = _seg_sum(d, seg, n_hosts)
    live = total > 1e-9
    safe_total = np.where(live, total, 1.0)
    grants = d * np.minimum(1.0, cap / safe_total)[seg]
    under = live & (total < cap)
    if under.any():
        ratio = (cap / safe_total)[seg]
        grants = np.where(under[seg], np.minimum(d * ratio, c), grants)
        # Capacity released by capped VMs goes back to the others.  Each
        # pass either caps a VM or hands out the whole spare, so every host
        # settles within (its VM count + 1) passes — mirroring the scalar
        # loop's ``range(len(grants))`` bound plus break conditions.
        max_vms = int(np.bincount(seg, minlength=n_hosts).max())
        active = under
        for _ in range(max_vms + 1):
            spare = cap - _seg_sum(grants, seg, n_hosts)
            takers = ((c - grants) > 1e-12) & (d > 0)
            taker_demand = _seg_sum(np.where(takers, d, 0.0), seg, n_hosts)
            active = active & (spare > 1e-9) & (taker_demand > 0)
            if not active.any():
                break
            update = takers & active[seg]
            share = np.where(update,
                             d / np.where(taker_demand > 0, taker_demand,
                                          1.0)[seg], 0.0)
            grants = np.where(update,
                              np.minimum(grants + spare[seg] * share, c),
                              grants)
    return np.where(live[seg], grants, 0.0)


def _mem_dim_seg(d: np.ndarray, cap: np.ndarray, seg: np.ndarray,
                 n_hosts: int) -> np.ndarray:
    """Segmented twin of the scalar allocator's ``mem_dim``."""
    total = _seg_sum(d, seg, n_hosts)
    over = (total > cap) & (total > 1e-9)
    ratio = (cap / np.where(total > 1e-9, total, 1.0))[seg]
    return np.where(over[seg], d * ratio, d)


def proportional_allocation_batch(
        cap_cpu: np.ndarray, cap_mem: np.ndarray, cap_bw: np.ndarray,
        seg: np.ndarray,
        d_cpu: np.ndarray, d_mem: np.ndarray, d_bw: np.ndarray,
        c_cpu: Optional[np.ndarray] = None,
        c_mem: Optional[np.ndarray] = None,
        c_bw: Optional[np.ndarray] = None,
        n_hosts: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`proportional_allocation` over many hosts at once.

    Instead of one ``{vm_id: Resources}`` mapping per host, takes the whole
    fleet as aligned arrays: ``cap_*`` are per-host capacities (length
    ``n_hosts``), ``d_*`` are per-VM demands, ``c_*`` optional per-VM caps,
    and ``seg[i]`` is the host index of VM ``i`` (hosts need not be
    contiguous; empty hosts simply receive no VMs).  Returns the per-VM
    ``(grant_cpu, grant_mem, grant_bw)`` arrays.

    The arithmetic mirrors the scalar function operation-for-operation so
    the two agree within 1e-9 per grant (the differential tests enforce
    this); only the order of per-host summations differs.
    """
    seg = np.asarray(seg, dtype=np.intp)
    cap_cpu = np.asarray(cap_cpu, dtype=float)
    cap_mem = np.asarray(cap_mem, dtype=float)
    cap_bw = np.asarray(cap_bw, dtype=float)
    n = int(n_hosts) if n_hosts is not None else len(cap_cpu)
    d_cpu = np.asarray(d_cpu, dtype=float)
    d_mem = np.asarray(d_mem, dtype=float)
    d_bw = np.asarray(d_bw, dtype=float)
    inf = float("inf")
    c_cpu = (np.full_like(d_cpu, inf) if c_cpu is None
             else np.asarray(c_cpu, dtype=float))
    c_mem = (np.full_like(d_mem, inf) if c_mem is None
             else np.asarray(c_mem, dtype=float))
    c_bw = (np.full_like(d_bw, inf) if c_bw is None
            else np.asarray(c_bw, dtype=float))
    # Same pre-pass as the scalar path: cap demands per VM, clip negatives.
    d_cpu = np.maximum(np.minimum(d_cpu, c_cpu), 0.0)
    d_mem = np.maximum(np.minimum(d_mem, c_mem), 0.0)
    d_bw = np.maximum(np.minimum(d_bw, c_bw), 0.0)
    g_cpu = _burst_dim_seg(d_cpu, c_cpu, cap_cpu, seg, n)
    g_bw = _burst_dim_seg(d_bw, c_bw, cap_bw, seg, n)
    g_mem = _mem_dim_seg(d_mem, cap_mem, seg, n)
    return g_cpu, g_mem, g_bw


@dataclass
class MultiDCSystem:
    """Global multi-DC state: topology + placement + physics + tariffs."""

    datacenters: List[DataCenter]
    vms: Dict[str, VirtualMachine]
    network: NetworkModel
    demand_model: DemandModel = field(default_factory=DemandModel)
    rt_model: ResponseTimeModel = field(default_factory=ResponseTimeModel)
    prices: PriceBook = field(default_factory=PriceBook)
    contracts: Dict[str, SLAContract] = field(default_factory=dict)
    auto_power_off: bool = True
    #: Optional time-varying tariffs ("follow the sun/wind", paper §II/§VI);
    #: when set, the engine applies it before each round via
    #: :meth:`apply_tariffs` so scheduler and accounting agree on prices.
    tariff_schedule: Optional[TariffSchedule] = None
    # VMs currently migrating: vm_id -> remaining blackout seconds.
    _pending_blackout_s: Dict[str, float] = field(default_factory=dict)
    #: Ground-truth demands of the last played interval (vm_id -> Resources);
    #: schedulers use these to seed host views with out-of-scope VM demands.
    last_demands: Dict[str, Resources] = field(default_factory=dict)
    #: Cached :class:`repro.sim.fleet.FleetState` for array stepping and
    #: round snapshots, keyed by the trace it was built from (see fleet.py).
    _fleet_cache: Optional[object] = field(default=None, repr=False,
                                           compare=False)
    #: Cached :class:`repro.sim.sharding.ShardedFleet` facade (per-DC
    #: shards over the fleet snapshot above); same invalidation rules.
    _sharded_cache: Optional[object] = field(default=None, repr=False,
                                             compare=False)

    def __post_init__(self) -> None:
        locs = [dc.location for dc in self.datacenters]
        if len(set(locs)) != len(locs):
            raise ValueError("duplicate DC locations")
        self._pm_index: Dict[str, Tuple[DataCenter, PhysicalMachine]] = {}
        for dc in self.datacenters:
            for pm in dc.pms:
                if pm.pm_id in self._pm_index:
                    raise ValueError(f"duplicate PM id {pm.pm_id!r}")
                self._pm_index[pm.pm_id] = (dc, pm)
        for vm_id in self.vms:
            self.contracts.setdefault(vm_id, SLAContract(
                rt0=self.vms[vm_id].rt0, alpha=self.vms[vm_id].alpha,
                price_eur_per_hour=self.vms[vm_id].price_eur_per_hour))

    # -- lookup -----------------------------------------------------------------
    @property
    def locations(self) -> List[str]:
        return [dc.location for dc in self.datacenters]

    @property
    def pms(self) -> List[PhysicalMachine]:
        return [pm for dc in self.datacenters for pm in dc.pms]

    def dc(self, location: str) -> DataCenter:
        for d in self.datacenters:
            if d.location == location:
                return d
        raise KeyError(f"no DC at location {location!r}")

    def pm(self, pm_id: str) -> PhysicalMachine:
        try:
            return self._pm_index[pm_id][1]
        except KeyError:
            raise KeyError(f"unknown PM {pm_id!r}") from None

    def dc_of_pm(self, pm_id: str) -> DataCenter:
        try:
            return self._pm_index[pm_id][0]
        except KeyError:
            raise KeyError(f"unknown PM {pm_id!r}") from None

    def host_of(self, vm_id: str) -> Optional[PhysicalMachine]:
        for dc in self.datacenters:
            pm = dc.host_of(vm_id)
            if pm is not None:
                return pm
        return None

    def placement(self) -> Dict[str, str]:
        """Current ``{vm_id: pm_id}`` map for placed VMs."""
        out: Dict[str, str] = {}
        for dc in self.datacenters:
            for pm in dc.pms:
                for vm_id in pm.vm_ids:
                    out[vm_id] = pm.pm_id
        return out

    def location_of_vm(self, vm_id: str) -> Optional[str]:
        pm = self.host_of(vm_id)
        return None if pm is None else self.dc_of_pm(pm.pm_id).location

    # -- tariffs --------------------------------------------------------------
    def apply_tariffs(self, t: int) -> None:
        """Refresh every DC's electricity price for interval ``t``."""
        if self.tariff_schedule is None:
            return
        for dc in self.datacenters:
            dc.energy_price_eur_kwh = self.tariff_schedule.price(
                dc.location, t)

    # -- placement execution ------------------------------------------------------
    def deploy(self, vm_id: str, pm_id: str,
               grant: Optional[Resources] = None) -> None:
        """Initial placement of a not-yet-hosted VM (no migration cost)."""
        if vm_id not in self.vms:
            raise KeyError(f"unknown VM {vm_id!r}")
        if self.host_of(vm_id) is not None:
            raise ValueError(f"VM {vm_id!r} already placed; use apply_schedule")
        pm = self.pm(pm_id)
        if not pm.on:
            pm.set_power(True)
        # The zero default is placement bookkeeping only: real grants are
        # recomputed by the sharing model on the next step(), and a zero
        # grant always fits (many VMs may board one host before first load).
        pm.place(vm_id, grant or Resources())

    def deploy_many(self, placements: Mapping[str, str]) -> None:
        """Initial placement of many not-yet-hosted VMs (no migration cost).

        Equivalent to calling :meth:`deploy` per VM, but validates the
        "not already placed" precondition against one :meth:`placement`
        snapshot instead of one O(n_pms) :meth:`host_of` scan per VM —
        at 50–100k VMs the per-VM scan is quadratic and dominates fleet
        construction.
        """
        current = self.placement()
        for vm_id, pm_id in placements.items():
            if vm_id not in self.vms:
                raise KeyError(f"unknown VM {vm_id!r}")
            if vm_id in current:
                raise ValueError(
                    f"VM {vm_id!r} already placed; use apply_schedule")
            if self.pm(pm_id).failed:  # raises on unknown host
                raise ValueError(
                    f"cannot move VM {vm_id!r} onto failed PM {pm_id!r}")
        for vm_id, pm_id in placements.items():
            pm = self._pm_index[pm_id][1]
            if not pm.on:
                pm.set_power(True)
            pm.place(vm_id, Resources())

    def apply_schedule(self, schedule: Mapping[str, str]) -> List[MigrationEvent]:
        """Execute a placement, migrating VMs whose host changes.

        VMs absent from ``schedule`` stay put.  Returns the migrations
        performed; their blackout seconds are charged on the next
        :meth:`step`.
        """
        current = self.placement()
        events: List[MigrationEvent] = []
        moves = {vm_id: pm_id for vm_id, pm_id in schedule.items()
                 if current.get(vm_id) != pm_id}
        # Validate targets before mutating anything.
        for vm_id, pm_id in moves.items():
            if vm_id not in self.vms:
                raise KeyError(f"unknown VM {vm_id!r} in schedule")
            if self.pm(pm_id).failed:  # raises on unknown host
                raise ValueError(
                    f"cannot move VM {vm_id!r} onto failed PM {pm_id!r}")

        # Evict every mover first: simultaneous moves (swaps, rotations)
        # must not transiently overflow a host.
        carried: Dict[str, Resources] = {}
        for vm_id, pm_id in moves.items():
            src_pm_id = current.get(vm_id)
            if src_pm_id is not None:
                carried[vm_id] = self.pm(src_pm_id).evict(vm_id)
        for vm_id, pm_id in moves.items():
            src_pm_id = current.get(vm_id)
            dst_dc, dst_pm = self._pm_index[pm_id]
            if not dst_pm.on:
                dst_pm.set_power(True)
            if src_pm_id is None:
                self.deploy(vm_id, pm_id)
                continue
            src_dc = self._pm_index[src_pm_id][0]
            # The carried grant is provisional — step() recomputes every
            # grant — so clip it into whatever the destination has free.
            grant = carried[vm_id]
            free = dst_pm.free
            grant = Resources(cpu=min(grant.cpu, max(0.0, free.cpu)),
                              mem=min(grant.mem, max(0.0, free.mem)),
                              bw=min(grant.bw, max(0.0, free.bw)))
            dst_pm.place(vm_id, grant)
            seconds = self.network.migration_seconds(
                self.vms[vm_id].image_size_mb, src_dc.location,
                dst_dc.location)
            self._pending_blackout_s[vm_id] = (
                self._pending_blackout_s.get(vm_id, 0.0) + seconds)
            events.append(MigrationEvent(
                vm_id=vm_id, from_pm=src_pm_id, to_pm=pm_id,
                from_location=src_dc.location, to_location=dst_dc.location,
                seconds=seconds, inter_dc=src_dc.location != dst_dc.location))

        if self.auto_power_off:
            for dc in self.datacenters:
                for pm in dc.pms:
                    if pm.on and pm.n_vms == 0:
                        pm.set_power(False)
        return events

    # -- one interval of physics ---------------------------------------------------
    def step(self, trace: WorkloadTrace, t: int,
             migrations: Optional[List[MigrationEvent]] = None
             ) -> IntervalReport:
        """Play interval ``t`` of the trace against the current placement.

        Demands, the proportional sharing, response times, SLA, power and
        the money flows are evaluated as aligned numpy arrays by
        :func:`repro.sim.fleet.step_range`, over one range covering every
        PM of a cached :class:`~repro.sim.fleet.FleetState` snapshot of
        the trace.  :meth:`_step_scalar` is the per-VM reference loop;
        the two agree within 1e-9 on every :class:`IntervalReport` field.
        """
        from .fleet import (FleetState, step_range, unplaced_traced,
                            unplaced_vm_stats, write_steps)
        fleet = FleetState.for_system(self, trace)
        part = step_range(self, fleet, t, trace.interval_s, 0,
                          len(fleet.pms), box=True)
        write_steps(self, [part])
        vm_stats = part.vms
        vm_stats.update(unplaced_vm_stats(
            self, fleet, t, unplaced_traced(fleet, [part.placed])))
        # Revenue is summed over every VM column in fleet order, zeros for
        # the unplaced ones: the reduction order fixes the total's last bits.
        revenue = np.zeros(len(fleet.vm_ids))
        revenue[part.placed] = part.revenue
        profit = ProfitBreakdown(
            revenue_eur=float(revenue.sum()),
            migration_penalty_eur=part.penalty_eur,
            energy_cost_eur=float(part.energy_cost.sum()))
        return IntervalReport(t=t, interval_s=trace.interval_s, vms=vm_stats,
                              pms=part.pms, migrations=list(migrations or []),
                              profit=profit, placement=self.placement())

    def _step_scalar(self, trace: WorkloadTrace, t: int,
                     migrations: Optional[List[MigrationEvent]] = None
                     ) -> IntervalReport:
        """Reference implementation of :meth:`step` (per-VM Python loops).

        Not a production path: :func:`repro.arena.invariants.
        check_spec_parity` replays it against :meth:`step` at runtime.
        """
        interval_s = trace.interval_s
        hours = interval_s / 3600.0
        migrations = migrations or []
        profit = ProfitBreakdown()
        vm_stats: Dict[str, VMIntervalStats] = {}
        pm_stats: Dict[str, PMIntervalStats] = {}

        # 1. Demands and grants per host.
        per_pm_used_cpu: Dict[str, List[float]] = {}
        self.last_demands = {}
        for dc in self.datacenters:
            for pm in dc.pms:
                if not pm.vm_ids:
                    continue
                demands: Dict[str, Resources] = {}
                caps: Dict[str, Resources] = {}
                for vm_id in pm.vm_ids:
                    vm = self.vms[vm_id]
                    # Placed-but-untraced VMs carry zero load: no series
                    # means no traffic (the scheduling paths skip them for
                    # the same reason), so they demand only their base
                    # footprint and trivially meet their SLA.
                    agg = (trace.aggregate_at(vm_id, t)
                           if trace.has_vm(vm_id) else LoadVector(0, 0, 0))
                    # Demand is what the load *needs*, deliberately not
                    # truncated to the host: overload must register as
                    # stress > 1 (queueing), not disappear.
                    demands[vm_id] = self.demand_model.required_resources(
                        agg, vm.base_mem_mb, cpu_cap=float("inf"))
                    caps[vm_id] = vm.max_resources
                grants = proportional_allocation(pm.capacity, demands, caps)
                self.last_demands.update(demands)
                pm.regrant_all(grants)
                used_cpus = [min(demands[vm_id].cpu, grants[vm_id].cpu)
                             for vm_id in grants]
                per_pm_used_cpu[pm.pm_id] = used_cpus

                # 2. RT / SLA / revenue per VM on this host.
                for vm_id in pm.vm_ids:
                    vm = self.vms[vm_id]
                    contract = self.contracts[vm_id]
                    loads = (trace.load_at(vm_id, t)
                             if trace.has_vm(vm_id) else {})
                    agg = LoadVector.combine(loads.values())
                    required = demands[vm_id]
                    given = grants[vm_id]
                    proc_rt = self.rt_model.process_rt(agg, required, given)
                    rt_by_source = {
                        src: self.rt_model.total_rt(
                            proc_rt,
                            self.network.host_to_source_ms(dc.location, src))
                        for src in loads}
                    sla_raw = weighted_sla(
                        rt_by_source, {s: l.rps for s, l in loads.items()},
                        contract)
                    sla_process = contract.fulfillment(proc_rt)
                    blackout_s = self._pending_blackout_s.pop(vm_id, 0.0)
                    frac = min(1.0, blackout_s / interval_s)
                    sla = sla_raw * (1.0 - frac)
                    rev = revenue_eur(sla, hours, contract.price_eur_per_hour)
                    profit.add_revenue(rev)
                    if frac > 0.0:
                        profit.add_migration_penalty(migration_penalty_eur(
                            blackout_s, self.prices.migration_penalty_rate))
                    vm_stats[vm_id] = VMIntervalStats(
                        vm_id=vm_id, pm_id=pm.pm_id, location=dc.location,
                        load=agg, required=required, given=given,
                        process_rt_s=proc_rt, rt_by_source=rt_by_source,
                        sla_process=sla_process, sla_raw=sla_raw, sla=sla,
                        blackout_fraction=frac,
                        queue_len=self.rt_model.queue_length(
                            agg, required, given, interval_s),
                        revenue_eur=rev)

        # 2b. Unplaced VMs (e.g. orphaned by a host failure awaiting
        # rescheduling): fully unavailable -> SLA 0, no revenue.
        placed = set(vm_stats)
        traced = {vm for vm, _src in trace.series}
        for vm_id, vm in self.vms.items():
            if vm_id in placed or vm_id not in traced:
                continue
            loads = trace.load_at(vm_id, t)
            agg = LoadVector.combine(loads.values())
            required = self.demand_model.required_resources(
                agg, vm.base_mem_mb, cpu_cap=float("inf"))
            rt_cap = self.rt_model.rt_cap_s
            vm_stats[vm_id] = VMIntervalStats(
                vm_id=vm_id, pm_id="", location="", load=agg,
                required=required, given=Resources(),
                process_rt_s=rt_cap,
                rt_by_source={src: rt_cap for src in loads},
                sla_process=0.0, sla_raw=0.0, sla=0.0,
                blackout_fraction=1.0, queue_len=0.0, revenue_eur=0.0)

        # 3. Power and energy cost per PM.
        for dc in self.datacenters:
            price = dc.energy_price_eur_kwh
            for pm in dc.pms:
                used = per_pm_used_cpu.get(pm.pm_id, [])
                pm_cpu = min(self.demand_model.pm_cpu(used),
                             pm.capacity.cpu) if used else 0.0
                watts = (pm.power_model.facility_watts(pm_cpu)
                         if pm.on else 0.0)
                wh = watts * interval_s / 3600.0
                cost = energy_cost_eur(watts, interval_s, price)
                profit.add_energy_cost(cost)
                pm_stats[pm.pm_id] = PMIntervalStats(
                    pm_id=pm.pm_id, location=dc.location, on=pm.on,
                    n_vms=pm.n_vms, sum_vm_cpu=float(sum(used)),
                    pm_cpu=pm_cpu, facility_watts=watts, energy_wh=wh,
                    energy_cost_eur=cost)

        return IntervalReport(t=t, interval_s=interval_s, vms=vm_stats,
                              pms=pm_stats, migrations=list(migrations),
                              profit=profit, placement=self.placement())
