"""Array-backed interval stepping.

:meth:`repro.sim.multidc.MultiDCSystem.step` and the per-DC
:class:`~repro.sim.sharding.ShardedFleet` both play an interval through
the one kernel of this module:

* :class:`FleetState` snapshots everything *static* about a (system, trace)
  pair as aligned numpy arrays: stacked per-(VM, source) load series,
  precomputed per-VM aggregate loads for every interval, per-VM contract
  and cap columns, per-PM capacity columns, power-model groups and the
  location x source latency matrix.  It is built once and cached on the
  system (:attr:`MultiDCSystem._fleet_cache`), so stepping a 96-interval
  run pays the snapshot cost once.
* :func:`step_range` plays one interval on a contiguous PM range
  ``[lo, hi)`` of the snapshot: demands via
  :meth:`DemandModel.required_batch`, grants via the segmented
  :func:`~repro.sim.multidc.proportional_allocation_batch`, response times
  via :meth:`ResponseTimeModel.process_rt_arrays`, per-source SLA via
  grouped ``bincount`` reductions, and power/energy/money per PM.  It
  writes nothing; :func:`write_steps` writes back the grants, observed
  demands and consumed blackouts like the scalar loop, once every range
  of the interval has computed.  ``step`` is one range covering every
  PM; the sharded facade is one range per datacenter.  Per-VM and per-PM
  statistics are boxed once, straight from the result arrays, only when
  a report is wanted.

Contract: the scalar loop :meth:`MultiDCSystem._step_scalar` is the
executable reference, and ``step`` agrees with it within 1e-9 on every
:class:`~repro.sim.multidc.IntervalReport` field — including every per-VM
and per-PM statistic.  ``tests/sim/test_fleet_step.py`` checks this;
:func:`repro.arena.invariants.check_spec_parity` replays it on every
tournament draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .demand import LoadVector
from .machines import PhysicalMachine, Resources
from .multidc import (IntervalReport, MultiDCSystem, PMIntervalStats,
                      VMIntervalStats, proportional_allocation_batch)
from ..core.profit import migration_penalty_eur
from ..core.sla import sla_fulfillment
from ..workload.traces import WorkloadTrace

__all__ = ["FleetState", "RangeStep", "step_range", "write_steps",
           "unplaced_traced", "unplaced_vm_stats", "report_max_abs_diff"]


def report_max_abs_diff(a: IntervalReport, b: IntervalReport) -> float:
    """Largest absolute difference between two reports, over every field.

    The equivalence metric of the batch-vs-scalar contract: walks every
    per-VM statistic (loads, demands, grants, response times, SLA terms,
    queue, revenue), every per-PM statistic, the profit breakdown and the
    scalar report attributes.  Structural mismatches — different VM/PM
    sets, placements, migration counts or categorical fields — raise
    ``ValueError`` rather than being folded into the metric.
    """
    if set(a.vms) != set(b.vms) or set(a.pms) != set(b.pms):
        raise ValueError("reports cover different VM/PM sets")
    if a.placement != b.placement:
        raise ValueError("reports have different placements")
    if len(a.migrations) != len(b.migrations):
        raise ValueError("reports have different migration counts")
    worst = max(abs(a.t - b.t), abs(a.interval_s - b.interval_s))
    for vm_id, va in a.vms.items():
        vb = b.vms[vm_id]
        if (va.pm_id, va.location) != (vb.pm_id, vb.location):
            raise ValueError(f"VM {vm_id!r} hosted differently")
        if set(va.rt_by_source) != set(vb.rt_by_source):
            raise ValueError(f"VM {vm_id!r} has different sources")
        for field in ("process_rt_s", "sla_process", "sla_raw", "sla",
                      "blackout_fraction", "queue_len", "revenue_eur"):
            worst = max(worst, abs(getattr(va, field) - getattr(vb, field)))
        for field in ("rps", "bytes_per_req", "cpu_time_per_req"):
            worst = max(worst,
                        abs(getattr(va.load, field)
                            - getattr(vb.load, field)))
        for field in ("cpu", "mem", "bw"):
            worst = max(worst, abs(getattr(va.required, field)
                                   - getattr(vb.required, field)),
                        abs(getattr(va.given, field)
                            - getattr(vb.given, field)))
        for src, rt in va.rt_by_source.items():
            worst = max(worst, abs(rt - vb.rt_by_source[src]))
    for pm_id, pa in a.pms.items():
        pb = b.pms[pm_id]
        if (pa.on, pa.n_vms, pa.location) != (pb.on, pb.n_vms, pb.location):
            raise ValueError(f"PM {pm_id!r} state differs")
        for field in ("sum_vm_cpu", "pm_cpu", "facility_watts",
                      "energy_wh", "energy_cost_eur"):
            worst = max(worst, abs(getattr(pa, field) - getattr(pb, field)))
    for field in ("revenue_eur", "migration_penalty_eur",
                  "energy_cost_eur"):
        worst = max(worst,
                    abs(getattr(a.profit, field) - getattr(b.profit, field)))
    return worst

#: Shared empty grant for unplaced VMs (Resources is frozen, safe to share).
_NO_GRANT = Resources()


def _cache_key(system: MultiDCSystem, trace: WorkloadTrace) -> tuple:
    """Shape of the (system, trace) pair a FleetState was built from.

    Trace identity is checked separately (``FleetState.trace is trace`` —
    the snapshot keeps a strong reference, so the id cannot be recycled
    while it is cached); the shape key catches growth of the same objects:
    series added to the trace, VMs/PMs added to the system.  In-place
    mutation of an existing series' arrays or of a VM's contract between
    steps is not detected (neither is supported elsewhere either — traces
    and contracts are treated as immutable during a run).
    """
    return (len(trace.series), trace.n_intervals,
            len(system.vms), len(system._pm_index))


class FleetState:
    """Aligned-array snapshot of a (system, trace) pair for batch stepping.

    Column ``j`` of every VM array describes ``vm_ids[j]`` (the system's
    VMs that have trace series, in system order); column ``i`` of every PM
    array describes ``pms[i]`` (datacenter order, as in
    :attr:`MultiDCSystem.pms`).  Time-varying state — placement, power
    flags, tariffs, pending blackouts — is deliberately *not* snapshotted;
    :func:`step_range` reads it from the live system every interval.
    """

    def __init__(self, system: MultiDCSystem, trace: WorkloadTrace) -> None:
        #: The trace this snapshot was built from (kept alive so the cache
        #: check in :meth:`for_system` can rely on object identity).
        self.trace = trace
        self.key = _cache_key(system, trace)
        traced = {vm for vm, _src in trace.series}
        #: Every system VM gets a column; placed-but-untraced VMs carry
        #: all-zero load (the pinned semantic: no series means no traffic,
        #: matching the scheduling paths, which skip them so they stay
        #: put).  :attr:`traced_ids` / :attr:`traced_set` identify the VMs
        #: that actually have series.
        self.vm_ids: List[str] = list(system.vms)
        self.vm_index: Dict[str, int] = {vm: j
                                         for j, vm in enumerate(self.vm_ids)}
        self.traced_ids: List[str] = [vm for vm in self.vm_ids
                                      if vm in traced]
        self.traced_set = frozenset(self.traced_ids)
        n_vms = len(self.vm_ids)
        n_t = max(trace.n_intervals, 1)

        # -- per-(VM, source) series rows, in trace insertion order ---------
        series_vm: List[int] = []
        src_index: Dict[str, int] = {}
        series_src: List[int] = []
        rows_rps: List[np.ndarray] = []
        rows_bpr: List[np.ndarray] = []
        rows_cpr: List[np.ndarray] = []
        #: Per-VM [(series row, source name), ...] — the VM's sources in
        #: the same order ``trace.load_at`` yields them.
        self.vm_rows: List[List[Tuple[int, str]]] = [[] for _ in
                                                     range(n_vms)]
        for (vm, src), s in trace.series.items():
            j = self.vm_index.get(vm)
            if j is None:
                continue
            row = len(series_vm)
            series_vm.append(j)
            series_src.append(src_index.setdefault(src, len(src_index)))
            self.vm_rows[j].append((row, src))
            rows_rps.append(s.rps)
            rows_bpr.append(s.bytes_per_req)
            rows_cpr.append(s.cpu_time_per_req)
        self.series_vm = np.asarray(series_vm, dtype=np.intp)
        self.series_src = np.asarray(series_src, dtype=np.intp)
        if rows_rps:
            self.rps_rows = np.stack(rows_rps)
            self.bpr_rows = np.stack(rows_bpr)
            self.cpr_rows = np.stack(rows_cpr)
        else:
            self.rps_rows = np.zeros((0, n_t))
            self.bpr_rows = np.zeros((0, n_t))
            self.cpr_rows = np.zeros((0, n_t))

        # -- per-VM aggregate load for every interval ------------------------
        # Accumulation in series order matches LoadVector.combine's
        # sequential sums bit-for-bit.
        tot = np.zeros((n_vms, n_t))
        wsum_bpr = np.zeros((n_vms, n_t))
        wsum_cpr = np.zeros((n_vms, n_t))
        np.add.at(tot, self.series_vm, self.rps_rows)
        np.add.at(wsum_bpr, self.series_vm, self.rps_rows * self.bpr_rows)
        np.add.at(wsum_cpr, self.series_vm, self.rps_rows * self.cpr_rows)
        first_row = np.zeros(n_vms, dtype=np.intp)
        has_rows = np.zeros(n_vms, dtype=bool)
        for j in range(n_vms):
            if self.vm_rows[j]:
                first_row[j] = self.vm_rows[j][0][0]
                has_rows[j] = True
        self.traced_mask = has_rows
        safe_tot = np.where(tot > 0, tot, 1.0)
        # Zero-rate intervals keep the first source's request mix, exactly
        # like LoadVector.combine; untraced VMs have no sources at all and
        # aggregate to LoadVector(0, 0, 0), like LoadVector.combine([]).
        if rows_rps:
            fb_bpr = np.where(has_rows[:, None], self.bpr_rows[first_row],
                              0.0)
            fb_cpr = np.where(has_rows[:, None], self.cpr_rows[first_row],
                              0.0)
        else:
            fb_bpr = np.zeros((n_vms, n_t))
            fb_cpr = np.zeros((n_vms, n_t))
        self.agg_rps = tot
        self.agg_bpr = np.where(tot > 0, wsum_bpr / safe_tot, fb_bpr)
        self.agg_cpr = np.where(tot > 0, wsum_cpr / safe_tot, fb_cpr)

        # -- per-VM static columns ------------------------------------------
        vms = [system.vms[vm] for vm in self.vm_ids]
        # Traced VMs need a contract (as before); an untraced VM without
        # one only errors if it is ever *placed* — exactly when the
        # scalar loop would raise — so its columns stay zero and
        # ``no_contract`` lets the stepper mirror that KeyError.
        contracts = [system.contracts[vm] if has_rows[j]
                     else system.contracts.get(vm)
                     for j, vm in enumerate(self.vm_ids)]
        self.no_contract = np.array([c is None for c in contracts])
        self.base_mem = np.array([vm.base_mem_mb for vm in vms])
        self.vm_cap_cpu = np.array([vm.max_resources.cpu for vm in vms])
        self.vm_cap_mem = np.array([vm.max_resources.mem for vm in vms])
        self.vm_cap_bw = np.array([vm.max_resources.bw for vm in vms])
        self.price = np.array([0.0 if c is None else c.price_eur_per_hour
                               for c in contracts])
        self.rt0 = np.array([0.0 if c is None else c.rt0
                             for c in contracts])
        self.alpha = np.array([0.0 if c is None else c.alpha
                               for c in contracts])

        # -- per-PM static columns ------------------------------------------
        self.locations: List[str] = [dc.location
                                     for dc in system.datacenters]
        self.pms = []
        pm_loc: List[int] = []
        self.pm_loc_names: List[str] = []
        for li, dc in enumerate(system.datacenters):
            for pm in dc.pms:
                self.pms.append(pm)
                pm_loc.append(li)
                self.pm_loc_names.append(dc.location)
        self.pm_loc = np.asarray(pm_loc, dtype=np.intp)
        #: Per-DC contiguous ``[lo, hi)`` slices of the PM arrays (PMs are
        #: laid out in datacenter order) — the shard boundaries
        #: :mod:`repro.sim.sharding` slices on.  A zero-PM DC contributes an
        #: empty range.
        ranges: List[Tuple[int, int]] = []
        lo = 0
        for dc in system.datacenters:
            ranges.append((lo, lo + len(dc.pms)))
            lo += len(dc.pms)
        self.dc_pm_ranges = ranges
        self.pm_cap_cpu = np.array([pm.capacity.cpu for pm in self.pms])
        self.pm_cap_mem = np.array([pm.capacity.mem for pm in self.pms])
        self.pm_cap_bw = np.array([pm.capacity.bw for pm in self.pms])
        # Few distinct power curves per fleet: group PM indices so the
        # piecewise interpolation vectorizes per curve (same trick as
        # repro.core.model.HostBatch).
        by_model: Dict[object, List[int]] = {}
        for i, pm in enumerate(self.pms):
            by_model.setdefault(pm.power_model, []).append(i)
        self.power_groups = [(model, np.asarray(ix, dtype=np.intp))
                             for model, ix in by_model.items()]

        # -- location x source transport latency, seconds -------------------
        # Pairs the network cannot resolve become NaN; the scalar path only
        # ever looks up pairs that actually occur, so the batch path raises
        # lazily — when a *placed* VM needs an unknown pair (see step_range).
        self.sources = list(src_index)
        lat = np.full((max(len(self.locations), 1),
                       max(len(self.sources), 1)), np.nan)
        for li, loc in enumerate(self.locations):
            for si, src in enumerate(self.sources):
                try:
                    lat[li, si] = (
                        system.network.host_to_source_ms(loc, src) / 1000.0)
                except KeyError:
                    pass
        self.lat_s = lat

        # -- publish read-only ----------------------------------------------
        # The snapshot is shared: the stepper, the sharded runner and the
        # round-scoring path all read these arrays (and hand out views,
        # e.g. aggregate_columns), so corruption-by-alias must fail loudly
        # rather than skew later intervals.  Consumers that need to write
        # (fancy-indexed gathers) get fresh writable copies anyway.
        for arr in (self.series_vm, self.series_src, self.rps_rows,
                    self.bpr_rows, self.cpr_rows, self.traced_mask,
                    self.agg_rps, self.agg_bpr, self.agg_cpr,
                    self.no_contract, self.base_mem, self.vm_cap_cpu,
                    self.vm_cap_mem, self.vm_cap_bw, self.price,
                    self.rt0, self.alpha, self.pm_loc, self.pm_cap_cpu,
                    self.pm_cap_mem, self.pm_cap_bw, self.lat_s):
            arr.setflags(write=False)
        for _model, ix in self.power_groups:
            ix.setflags(write=False)

    # -- round-snapshot accessors (used by the scheduling path) --------------
    def aggregate_load_at(self, vm_id: str, t: int) -> LoadVector:
        """The VM's all-sources aggregate load at interval ``t``, O(1).

        Reads the precomputed per-interval aggregate columns, whose
        accumulation order matches :meth:`LoadVector.combine` bit-for-bit —
        so schedulers can skip re-merging per-source loads per round.
        """
        j = self.vm_index[vm_id]
        return LoadVector(rps=float(self.agg_rps[j, t]),
                          bytes_per_req=float(self.agg_bpr[j, t]),
                          cpu_time_per_req=float(self.agg_cpr[j, t]))

    def loads_at(self, vm_id: str, t: int) -> Dict[str, LoadVector]:
        """Per-source loads of one VM at interval ``t``.

        Same contents and source order as
        :meth:`~repro.workload.traces.WorkloadTrace.load_at`, served from
        the stacked series rows (O(own sources), no trace walk).
        """
        j = self.vm_index[vm_id]
        return {src: LoadVector(rps=float(self.rps_rows[row, t]),
                                bytes_per_req=float(self.bpr_rows[row, t]),
                                cpu_time_per_req=float(self.cpr_rows[row, t]))
                for row, src in self.vm_rows[j]}

    def aggregate_columns(self, t: int):
        """``(rps, bytes_per_req, cpu_time_per_req)`` columns at ``t``.

        One entry per VM of :attr:`vm_ids`; the inputs batch demand
        estimation feeds on (views into the snapshot — do not mutate).
        """
        return self.agg_rps[:, t], self.agg_bpr[:, t], self.agg_cpr[:, t]

    @staticmethod
    def for_system(system: MultiDCSystem,
                   trace: WorkloadTrace) -> "FleetState":
        """The cached snapshot for this pair, rebuilt when stale."""
        cached = system._fleet_cache
        if (isinstance(cached, FleetState) and cached.trace is trace
                and cached.key == _cache_key(system, trace)):
            return cached
        fleet = FleetState(system, trace)
        system._fleet_cache = fleet
        return fleet


@dataclass
class RangeStep:
    """What :func:`step_range` computed for one PM range.

    The per-VM arrays follow the range's placement order (PM by PM, each
    PM's VMs in hosting order); the per-PM arrays follow the range.
    ``vms`` and ``pms`` hold the boxed statistics when the step was asked
    for them and are empty otherwise; the last three are the writes.
    """

    placed: np.ndarray          # fleet columns of the placed VMs
    rps: np.ndarray
    sla: np.ndarray
    revenue: np.ndarray
    penalty_eur: float          # blackout penalties, in pending order
    on: np.ndarray
    watts: np.ndarray
    energy_wh: np.ndarray
    energy_cost: np.ndarray
    vms: Dict[str, VMIntervalStats]
    pms: Dict[str, PMIntervalStats]
    consumed: List[str]         # VMs whose blackout was played
    grants: List[Tuple[PhysicalMachine, Dict[str, Resources]]]
    demands: Dict[str, Resources]


def step_range(system: MultiDCSystem, fleet: FleetState, t: int,
               interval_s: float, lo: int, hi: int,
               box: bool) -> RangeStep:
    """Play interval ``t`` on the PMs ``[lo, hi)`` of ``fleet``.

    Follows the scalar reference loop stage by stage — demands, grants,
    response times, SLA, blackouts, revenue, power — as a handful of
    array operations over the range's placed VMs.  Nothing couples VMs
    on different hosts within an interval, and every per-VM and per-PM
    value is elementwise, so a range computes exactly the values a wider
    range would.  It writes nothing: grants, consumed blackouts and
    observed demands come back for :func:`write_steps`.  ``box`` also
    builds the per-VM and per-PM statistics of the report.
    """
    vm_index = fleet.vm_index
    pms = fleet.pms[lo:hi]
    n_local = hi - lo
    hours = interval_s / 3600.0

    # 1. Placement walk: which fleet column sits on which PM.
    placed_l: List[int] = []
    seg_l: List[int] = []
    hosted: List[Tuple[int, List[str]]] = []
    for k, pm in enumerate(pms):
        ids = pm.vm_ids
        if not ids:
            continue
        hosted.append((k, ids))
        for vm_id in ids:
            # Every system VM has a column (untraced ones carry zero
            # load); only a VM foreign to the system is an error.
            j = vm_index.get(vm_id)
            if j is None:
                raise KeyError(f"unknown VM {vm_id!r} on host {pm.pm_id!r}")
            if fleet.no_contract[j]:
                # The scalar loop raises on the contract lookup of any
                # placed VM; mirror it.
                raise KeyError(vm_id)
            placed_l.append(j)
            seg_l.append(k)
    placed = np.asarray(placed_l, dtype=np.intp)
    seg = np.asarray(seg_l, dtype=np.intp)
    n_placed = len(placed)
    # pos[j] is fleet column j's index into ``placed``, -1 off the range.
    pos = np.full(len(fleet.vm_ids), -1, dtype=np.intp)
    pos[placed] = np.arange(n_placed)

    # 2. Demands (constraint 5.1), deliberately uncapped so overload
    # registers as stress > 1 — as in the scalar path.
    dm = system.demand_model
    rps = fleet.agg_rps[placed, t]
    bpr = fleet.agg_bpr[placed, t]
    cpr = fleet.agg_cpr[placed, t]
    d_cpu, d_mem, d_bw = dm.required_batch(
        rps, bpr, cpr, fleet.base_mem[placed], cpu_cap=float("inf"))

    # 3. Grants: proportional sharing per PM (constraint 5.2), segmented.
    g_cpu, g_mem, g_bw = proportional_allocation_batch(
        fleet.pm_cap_cpu[lo:hi], fleet.pm_cap_mem[lo:hi],
        fleet.pm_cap_bw[lo:hi], seg, d_cpu, d_mem, d_bw,
        c_cpu=fleet.vm_cap_cpu[placed], c_mem=fleet.vm_cap_mem[placed],
        c_bw=fleet.vm_cap_bw[placed], n_hosts=n_local)

    # 4. Response times (constraint 6.1) and per-source SLA (6.2-7), one
    # row per (VM, source) series of a placed VM, in series order.
    rtm = system.rt_model
    proc_rt = rtm.process_rt_arrays(cpr, rps, d_cpu, g_cpu, d_mem, g_mem,
                                    d_bw, g_bw)
    rows = np.flatnonzero(pos[fleet.series_vm] >= 0)
    row_pos = pos[fleet.series_vm[rows]]
    row_src = fleet.series_src[rows]
    row_loc = fleet.pm_loc[lo + seg[row_pos]]
    lat = fleet.lat_s[row_loc, row_src]
    bad = np.isnan(lat)
    if bad.any():
        r = int(np.flatnonzero(bad)[0])
        raise KeyError(f"unknown location: no latency between host "
                       f"{fleet.locations[row_loc[r]]!r} and source "
                       f"{fleet.sources[row_src[r]]!r}")
    rt_rows = proc_rt[row_pos] + lat
    row_rps = fleet.rps_rows[rows, t]
    row_vm = placed[row_pos]
    # SLAContract.fulfillment with per-VM (rt0, alpha), elementwise.
    f_rows = sla_fulfillment(rt_rows, fleet.rt0[row_vm], fleet.alpha[row_vm])
    weight = np.bincount(row_pos, weights=row_rps, minlength=n_placed)
    scored = np.bincount(row_pos, weights=f_rows * row_rps,
                         minlength=n_placed)
    sla_raw = np.where(weight > 0,
                       scored / np.where(weight > 0, weight, 1.0), 1.0)

    # 5. Migration blackouts of the placed VMs, in pending order (orphans
    # keep theirs until re-placed), as in the scalar loop.
    frac = np.zeros(n_placed)
    penalty = 0.0
    consumed: List[str] = []
    pending = system._pending_blackout_s
    if pending:
        rate = system.prices.migration_penalty_rate
        for vm_id, blackout_s in pending.items():
            j = vm_index.get(vm_id)
            if j is None or pos[j] < 0:
                continue
            consumed.append(vm_id)
            f = min(1.0, blackout_s / interval_s)
            frac[pos[j]] = f
            if f > 0.0:
                penalty += migration_penalty_eur(blackout_s, rate)
    sla = sla_raw * (1.0 - frac)

    # 6. Revenue (same validation as core.profit.revenue_eur).
    if np.any(sla < 0.0) or np.any(sla > 1.0 + 1e-9):
        raise ValueError("SLA fulfillment outside [0, 1]")
    revenue = fleet.price[placed] * np.minimum(sla, 1.0) * hours

    # 7. Power and energy cost per PM (constraint 3).
    counts = np.bincount(seg, minlength=n_local)
    cpu_sums = np.bincount(seg, weights=np.minimum(d_cpu, g_cpu),
                           minlength=n_local)
    pm_cpu = np.minimum(dm.pm_cpu_batch(counts, cpu_sums),
                        fleet.pm_cap_cpu[lo:hi])
    on = np.fromiter((pm.on for pm in pms), dtype=bool, count=n_local)
    watts = np.empty(n_local)
    for model, ix in fleet.power_groups:
        sub = ix[(ix >= lo) & (ix < hi)] - lo
        if len(sub):
            watts[sub] = model.facility_watts(pm_cpu[sub])
    watts = np.where(on, watts, 0.0)
    energy_wh = watts * interval_s / 3600.0
    prices = np.array([dc.energy_price_eur_kwh
                       for dc in system.datacenters])[fleet.pm_loc[lo:hi]]
    energy_cost = energy_wh / 1000.0 * prices

    # 8. What the write-back installs — grants and observed demands —
    # boxing the statistics on the way when asked, straight from the
    # result arrays.
    d_cpu_l, d_mem_l, d_bw_l = d_cpu.tolist(), d_mem.tolist(), d_bw.tolist()
    g_cpu_l, g_mem_l, g_bw_l = g_cpu.tolist(), g_mem.tolist(), g_bw.tolist()
    locations = fleet.pm_loc_names
    vm_stats: Dict[str, VMIntervalStats] = {}
    if box:
        vm_rows = fleet.vm_rows
        # Indexed by series row; rows of VMs off the range stay unread.
        rt_of_row = np.zeros(len(fleet.series_vm))
        rt_of_row[rows] = rt_rows
        rt_of_row = rt_of_row.tolist()
        rps_l = rps.tolist()
        bpr_l = bpr.tolist()
        cpr_l = cpr.tolist()
        proc_rt_l = proc_rt.tolist()
        sla_process_l = sla_fulfillment(proc_rt, fleet.rt0[placed],
                                        fleet.alpha[placed]).tolist()
        sla_raw_l, sla_l = sla_raw.tolist(), sla.tolist()
        frac_l, revenue_l = frac.tolist(), revenue.tolist()
        queue_l = rtm.queue_length_arrays(rps, d_cpu, g_cpu,
                                          interval_s).tolist()
    grants: List[Tuple[PhysicalMachine, Dict[str, Resources]]] = []
    demands: Dict[str, Resources] = {}
    p = 0
    for k, ids in hosted:
        granted: Dict[str, Resources] = {}
        for vm_id in ids:
            required = Resources(d_cpu_l[p], d_mem_l[p], d_bw_l[p])
            given = Resources(g_cpu_l[p], g_mem_l[p], g_bw_l[p])
            granted[vm_id] = given
            demands[vm_id] = required
            if box:
                vm_stats[vm_id] = VMIntervalStats(
                    vm_id=vm_id, pm_id=pms[k].pm_id,
                    location=locations[lo + k],
                    load=LoadVector(rps_l[p], bpr_l[p], cpr_l[p]),
                    required=required, given=given,
                    process_rt_s=proc_rt_l[p],
                    rt_by_source={src: rt_of_row[r]
                                  for r, src in vm_rows[placed_l[p]]},
                    sla_process=sla_process_l[p], sla_raw=sla_raw_l[p],
                    sla=sla_l[p], blackout_fraction=frac_l[p],
                    queue_len=queue_l[p], revenue_eur=revenue_l[p])
            p += 1
        grants.append((pms[k], granted))

    pm_stats: Dict[str, PMIntervalStats] = {}
    if box:
        on_l, counts_l = on.tolist(), counts.tolist()
        sums_l, pm_cpu_l = cpu_sums.tolist(), pm_cpu.tolist()
        watts_l = watts.tolist()
        wh_l, cost_l = energy_wh.tolist(), energy_cost.tolist()
        for k, pm in enumerate(pms):
            pm_stats[pm.pm_id] = PMIntervalStats(
                pm_id=pm.pm_id, location=locations[lo + k],
                on=on_l[k], n_vms=counts_l[k], sum_vm_cpu=sums_l[k],
                pm_cpu=pm_cpu_l[k], facility_watts=watts_l[k],
                energy_wh=wh_l[k], energy_cost_eur=cost_l[k])

    return RangeStep(placed=placed, rps=rps, sla=sla, revenue=revenue,
                     penalty_eur=penalty, on=on, watts=watts,
                     energy_wh=energy_wh, energy_cost=energy_cost,
                     vms=vm_stats, pms=pm_stats,
                     consumed=consumed, grants=grants, demands=demands)


def write_steps(system: MultiDCSystem, parts: Sequence[RangeStep]) -> None:
    """Write an interval's computed ranges back, in range order.

    Call it once every range has computed: nothing here can fail, so an
    interval's writes happen all together or not at all.
    """
    demands: Dict[str, Resources] = {}
    for part in parts:
        for vm_id in part.consumed:
            del system._pending_blackout_s[vm_id]
        # The joint grants respect capacity by construction (the
        # allocator never hands out more than the host), so bypass
        # regrant_all's re-validation and swap each mapping whole.
        for pm, granted in part.grants:
            pm.granted = granted
        demands.update(part.demands)
    system.last_demands = demands


def unplaced_traced(fleet: FleetState,
                    placed: Iterable[np.ndarray]) -> np.ndarray:
    """Fleet columns of the traced VMs that no range placed."""
    mask = fleet.traced_mask.copy()
    for cols in placed:
        mask[cols] = False
    return np.flatnonzero(mask)


def unplaced_vm_stats(system: MultiDCSystem, fleet: FleetState, t: int,
                      unplaced: np.ndarray) -> Dict[str, VMIntervalStats]:
    """Statistics of traced VMs with no host: fully unavailable, SLA 0.

    Unplaced *and* untraced VMs are invisible, as in the scalar loop.
    """
    rps = fleet.agg_rps[unplaced, t]
    bpr = fleet.agg_bpr[unplaced, t]
    cpr = fleet.agg_cpr[unplaced, t]
    cpu, mem, bw = system.demand_model.required_batch(
        rps, bpr, cpr, fleet.base_mem[unplaced], cpu_cap=float("inf"))
    rt_cap = system.rt_model.rt_cap_s
    out: Dict[str, VMIntervalStats] = {}
    for j, r, b, c, dc, dm, db in zip(
            unplaced.tolist(), rps.tolist(), bpr.tolist(), cpr.tolist(),
            cpu.tolist(), mem.tolist(), bw.tolist()):
        vm_id = fleet.vm_ids[j]
        out[vm_id] = VMIntervalStats(
            vm_id=vm_id, pm_id="", location="", load=LoadVector(r, b, c),
            required=Resources(dc, dm, db), given=_NO_GRANT,
            process_rt_s=rt_cap,
            rt_by_source={src: rt_cap for _r, src in fleet.vm_rows[j]},
            sla_process=0.0, sla_raw=0.0, sla=0.0,
            blackout_fraction=1.0, queue_len=0.0, revenue_eur=0.0)
    return out
