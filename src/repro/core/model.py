"""The mathematical model (paper Figure 3) as evaluatable objects.

A :class:`SchedulingProblem` carries everything one scheduling round sees:
the VMs to place (:class:`VMRequest`, with per-source expected loads and the
previous schedule), the candidate hosts (:class:`HostView` snapshots with any
out-of-scope VMs still committed), the network, the tariffs and an
:class:`~repro.core.estimators.Estimator` supplying the learned/observed
functions of constraints 5-7.

:func:`placement_profit` scores one tentative (VM, host) pair with the
objective:

    profit = f_revenue(SLA) - f_penalty(Migr, Migl, ISize) - f_energycost

where the SLA term honours constraint 6 (production RT plus per-source
transport latency) and the energy term is the *marginal* facility power the
move adds on the target host — which is how consolidation wins emerge: the
first VM on a sleeping host pays the idle-power jump, co-located VMs pay only
the shallow slope of the Atom curve.

:func:`evaluate_schedule` scores a complete assignment (used by the exact
solver and by tests), and :func:`check_schedule` verifies the hard
constraints (1: one host per VM; 2: capacity).

Batch scoring
-------------

:func:`placement_profit` scores one pair; the schedulers score one VM
against *all* candidate hosts at once with a :class:`RoundScorer` over a
:class:`HostBatch` — an array-shaped snapshot of the host views, updated
one column per commit.  The scorer mirrors the scalar arithmetic so the
two agree within 1e-9 on every field (the differential tests in
``tests/core/test_batch_scoring.py`` enforce this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..sim.demand import LoadVector
from ..sim.machines import PhysicalMachine, Resources, VirtualMachine
from ..sim.network import NetworkModel
from ..sim.power import PowerModel
from .estimators import Estimator
from .profit import PriceBook, energy_cost_eur, migration_penalty_eur
from .sla import SLAContract, rt_for_fulfillment_arrays, weighted_sla

__all__ = ["ObjectiveWeights", "VMRequest", "HostView", "HostBatch",
           "SchedulingProblem", "PlacementEvaluation", "BatchEvaluation",
           "RoundScorer", "placement_profit", "evaluate_schedule",
           "check_schedule", "ScheduleViolation"]


@dataclass(frozen=True)
class ObjectiveWeights:
    """Relative weights of the objective terms.

    The paper's sanity checks use degenerate settings: follow-the-load is
    revenue-only (``energy = migration = 0``); the full scheduler uses all
    ones.
    """

    revenue: float = 1.0
    energy: float = 1.0
    migration: float = 1.0

    def __post_init__(self) -> None:
        if min(self.revenue, self.energy, self.migration) < 0:
            raise ValueError("weights must be non-negative")


@dataclass
class VMRequest:
    """One VM in scope for this scheduling round."""

    vm: VirtualMachine
    contract: SLAContract
    loads: Dict[str, LoadVector]
    current_pm: Optional[str] = None
    current_location: Optional[str] = None
    queue_len: float = 0.0

    @property
    def vm_id(self) -> str:
        return self.vm.vm_id

    @property
    def aggregate_load(self) -> LoadVector:
        return LoadVector.combine(self.loads.values())

    @property
    def total_rps(self) -> float:
        return sum(l.rps for l in self.loads.values())


@dataclass
class HostView:
    """A tentative-packing view of one PM.

    Bookkeeping is *demand*-side: ``committed`` maps each VM (out-of-scope
    residents plus in-scope VMs packed so far) to the resources its load
    requires.  Grants follow the hypervisor's work-conserving sharing (see
    :func:`repro.sim.multidc.proportional_allocation`): spare CPU/bandwidth
    bursts pro-rata, contention scales everyone down.  Demands may exceed
    capacity — that is not a packing error but an overload the profit
    function punishes through collapsing SLA.
    """

    pm_id: str
    location: str
    capacity: Resources
    power_model: PowerModel
    energy_price_eur_kwh: float
    initially_on: bool = True
    committed: Dict[str, Resources] = field(default_factory=dict)
    committed_used_cpu: Dict[str, float] = field(default_factory=dict)

    @staticmethod
    def of(pm: PhysicalMachine, location: str,
           energy_price_eur_kwh: float,
           exclude_vms: Sequence[str] = (),
           demands: Optional[Mapping[str, Resources]] = None) -> "HostView":
        """Snapshot a PM, releasing the VMs being rescheduled this round.

        ``demands`` supplies the last known resource demand per VM (from
        :attr:`repro.sim.multidc.MultiDCSystem.last_demands`); hosted VMs
        missing from it fall back to their recorded grant.
        """
        view = HostView(pm_id=pm.pm_id, location=location,
                        capacity=pm.capacity, power_model=pm.power_model,
                        energy_price_eur_kwh=energy_price_eur_kwh,
                        initially_on=pm.on)
        for vm_id, grant in pm.granted.items():
            if vm_id in exclude_vms:
                continue
            demand = demands.get(vm_id, grant) if demands else grant
            view.committed[vm_id] = demand
            view.committed_used_cpu[vm_id] = min(demand.cpu, grant.cpu)
        return view

    @property
    def used(self) -> Resources:
        total = Resources()
        for r in self.committed.values():
            total = total + r
        return total

    @property
    def free(self) -> Resources:
        return (self.capacity - self.used).clip_nonnegative()

    def would_be_on(self, auto_power_off: bool = True) -> bool:
        """Whether the host runs under the tentative packing.

        With ``auto_power_off`` (the system default), a host that ends the
        round empty is switched off, so only committed VMs keep it
        running — which is what lets the profit function credit
        consolidation with the full idle-power saving.
        """
        return bool(self.committed) or (self.initially_on
                                        and not auto_power_off)

    def grantable(self, required: Resources) -> Resources:
        """The grant the sharing model would give this VM if placed here.

        CPU/bandwidth burst into spare capacity pro-rata (grant =
        demand * capacity / total_demand, at most the full machine);
        memory gets demand when it fits and a proportional share when the
        host is over-committed.
        """
        used = self.used

        def burst(demand: float, other: float, cap: float) -> float:
            # demand * cap / total both bursts (total < cap) and throttles
            # (total > cap); a lone VM may take the whole machine.
            total = demand + other
            if demand <= 0.0 or total <= 0.0:
                return 0.0
            return min(cap, demand * cap / total)

        def share(demand: float, other: float, cap: float) -> float:
            total = demand + other
            if demand <= 0.0:
                return 0.0
            if total <= cap:
                return demand
            return demand * cap / total

        return Resources(
            cpu=burst(required.cpu, used.cpu, self.capacity.cpu),
            mem=share(required.mem, used.mem, self.capacity.mem),
            bw=burst(required.bw, used.bw, self.capacity.bw))

    def commit(self, vm_id: str, demand: Resources, used_cpu: float) -> None:
        """Record a packed VM's demand (overload allowed; see class doc)."""
        if vm_id in self.committed:
            raise ValueError(f"VM {vm_id!r} already committed to {self.pm_id!r}")
        self.committed[vm_id] = demand.clip_nonnegative()
        self.committed_used_cpu[vm_id] = used_cpu

    def release(self, vm_id: str) -> None:
        self.committed.pop(vm_id, None)
        self.committed_used_cpu.pop(vm_id, None)


class HostBatch:
    """Array-shaped, incrementally maintained snapshot of host views.

    Column ``i`` of every array describes ``hosts[i]``.  The batch scorer
    reads only these arrays (plus per-location and per-power-model index
    groups computed once), so scoring a VM against ``n`` hosts is a handful
    of length-``n`` numpy operations instead of ``n`` Python calls.

    During packing, :class:`RoundScorer` owns the columns and updates only
    the committed host's — the incremental contract that lets Best-Fit
    reuse one batch across a whole scheduling round; :meth:`refresh`
    recomputes a column from its host view.  (The simulator-side sibling
    is :class:`repro.sim.fleet.FleetState`, which snapshots a whole
    (system, trace) pair the same way for batch interval stepping.)

    Aggregates deliberately mirror the scalar path's arithmetic:
    ``used_*`` accumulates in the same order as :attr:`HostView.used` and
    ``committed_cpu_sum`` uses the same ``np.sum`` as the estimators'
    ``pm_cpu``, so batch and scalar scores agree within 1e-9.
    """

    def __init__(self, hosts: Sequence[HostView]) -> None:
        self.hosts: List[HostView] = list(hosts)
        n = len(self.hosts)
        self.index: Dict[str, int] = {h.pm_id: i
                                      for i, h in enumerate(self.hosts)}
        if len(self.index) != n:
            raise ValueError("duplicate host ids in batch")
        self.cap_cpu = np.array([h.capacity.cpu for h in self.hosts])
        self.cap_mem = np.array([h.capacity.mem for h in self.hosts])
        self.cap_bw = np.array([h.capacity.bw for h in self.hosts])
        self.energy_price = np.array([h.energy_price_eur_kwh
                                      for h in self.hosts])
        self.initially_on = np.array([h.initially_on for h in self.hosts],
                                     dtype=bool)
        self.used_cpu = np.zeros(n)
        self.used_mem = np.zeros(n)
        self.used_bw = np.zeros(n)
        self.committed_cpu_sum = np.zeros(n)
        self.committed_count = np.zeros(n, dtype=np.intp)
        for i in range(n):
            self.refresh(i)
        # Few distinct locations / power curves per fleet: group host
        # indices so latency and power lookups vectorize per group.
        by_loc: Dict[str, List[int]] = {}
        for i, h in enumerate(self.hosts):
            by_loc.setdefault(h.location, []).append(i)
        self.location_groups: Dict[str, np.ndarray] = {
            loc: np.asarray(ix, dtype=np.intp)
            for loc, ix in by_loc.items()}
        by_pm: Dict[PowerModel, List[int]] = {}
        for i, h in enumerate(self.hosts):
            by_pm.setdefault(h.power_model, []).append(i)
        self.power_groups: List[Tuple[PowerModel, np.ndarray]] = [
            (model, np.asarray(ix, dtype=np.intp))
            for model, ix in by_pm.items()]

    def __len__(self) -> int:
        return len(self.hosts)

    def refresh(self, i: int) -> None:
        """Recompute column ``i`` from its host view (O(VMs on that host))."""
        view = self.hosts[i]
        cpu = mem = bw = 0.0
        # Same accumulation order as HostView.used.
        for r in view.committed.values():
            cpu += r.cpu
            mem += r.mem
            bw += r.bw
        self.used_cpu[i] = cpu
        self.used_mem[i] = mem
        self.used_bw[i] = bw
        # Same np.sum the estimators' pm_cpu applies to the scalar list.
        self.committed_cpu_sum[i] = float(np.sum(np.asarray(
            list(view.committed_used_cpu.values()), dtype=float)))
        self.committed_count[i] = len(view.committed)

    def would_be_on(self, auto_power_off: bool = True) -> np.ndarray:
        """Vectorized :meth:`HostView.would_be_on` over the batch."""
        on = self.committed_count > 0
        if not auto_power_off:
            on = on | self.initially_on
        return on


@dataclass
class SchedulingProblem:
    """One scheduling round's full input."""

    requests: List[VMRequest]
    hosts: List[HostView]
    network: NetworkModel
    prices: PriceBook
    estimator: Estimator
    interval_s: float = 600.0
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    #: Mirror of :attr:`repro.sim.multidc.MultiDCSystem.auto_power_off`.
    auto_power_off: bool = True

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        ids = [h.pm_id for h in self.hosts]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate host ids")
        vms = [r.vm_id for r in self.requests]
        if len(set(vms)) != len(vms):
            raise ValueError("duplicate VM requests")

    def host(self, pm_id: str) -> HostView:
        for h in self.hosts:
            if h.pm_id == pm_id:
                return h
        raise KeyError(f"no host {pm_id!r} in problem")


@dataclass(frozen=True)
class PlacementEvaluation:
    """Outcome of scoring one tentative (VM, host) pair."""

    profit_eur: float
    revenue_eur: float
    energy_cost_eur: float
    migration_penalty_eur: float
    sla: float
    required: Resources
    given: Resources
    used_cpu: float
    migration_seconds: float

    @property
    def fits(self) -> bool:
        """Whether the host granted everything the estimator asked for."""
        return self.required.fits_in(self.given, slack=1e-6)


def _placement_sla(request: VMRequest, host: HostView,
                   network: NetworkModel, estimator: Estimator,
                   required: Resources, given: Resources) -> float:
    """Constraints 6-7: production + transport RT, per-source weighted SLA.

    Uses the estimator's RT when it has one; otherwise converts its direct
    SLA score into the contract's equivalent RT so transport latency can be
    added per source (a conservative, monotone composition).
    """
    agg = request.aggregate_load
    contract = request.contract
    rt_proc = estimator.process_rt(request.vm, agg, required, given,
                                   queue_len=request.queue_len)
    if rt_proc is not None:
        eq_rt = float(rt_proc)
    else:
        sla_proc = estimator.process_sla(request.vm, agg, required, given,
                                         contract,
                                         queue_len=request.queue_len)
        eq_rt = contract.rt_for_fulfillment(sla_proc)
    rt_by_source = {
        src: eq_rt + network.host_to_source_ms(host.location, src) / 1000.0
        for src in request.loads}
    return weighted_sla(rt_by_source,
                        {s: l.rps for s, l in request.loads.items()},
                        contract)


def placement_profit(problem: SchedulingProblem, request: VMRequest,
                     host: HostView,
                     required: Optional[Resources] = None
                     ) -> PlacementEvaluation:
    """Score placing ``request`` on ``host`` given current commitments.

    ``required`` may be passed in to avoid recomputing it across hosts.
    """
    est = problem.estimator
    vm = request.vm
    agg = request.aggregate_load
    if required is None:
        # Deliberately uncapped (matches the schedulers): overload must be
        # visible as demand beyond the host, not silently truncated.
        required = est.required_resources(vm, agg, float("inf"))
    given = host.grantable(required)
    used_cpu = min(required.cpu, given.cpu)

    # SLA -> revenue (with migration blackout haircut).
    sla = _placement_sla(request, host, problem.network, est, required, given)
    hours = problem.interval_s / 3600.0
    migration_s = 0.0
    penalty = 0.0
    if request.current_pm is not None and request.current_pm != host.pm_id:
        migration_s = problem.network.migration_seconds(
            vm.image_size_mb, request.current_location or host.location,
            host.location)
        penalty = migration_penalty_eur(
            migration_s, problem.prices.migration_penalty_rate)
        sla = sla * max(0.0, 1.0 - migration_s / problem.interval_s)
    revenue = request.contract.price_eur_per_hour * sla * hours

    # Marginal energy on the target host.
    cpu_before = est.pm_cpu(list(host.committed_used_cpu.values()))
    cpu_after = est.pm_cpu(
        list(host.committed_used_cpu.values()) + [used_cpu])
    running = host.would_be_on(problem.auto_power_off)
    watts_before = (host.power_model.facility_watts(
        min(cpu_before, host.capacity.cpu)) if running else 0.0)
    watts_after = host.power_model.facility_watts(
        min(cpu_after, host.capacity.cpu))
    energy = energy_cost_eur(max(0.0, watts_after - watts_before),
                             problem.interval_s, host.energy_price_eur_kwh)

    w = problem.weights
    profit = (w.revenue * revenue - w.energy * energy
              - w.migration * penalty)
    return PlacementEvaluation(
        profit_eur=profit, revenue_eur=revenue, energy_cost_eur=energy,
        migration_penalty_eur=penalty, sla=sla, required=required,
        given=given, used_cpu=used_cpu, migration_seconds=migration_s)


@dataclass(frozen=True)
class BatchEvaluation:
    """Outcome of scoring one VM against every host of a :class:`HostBatch`.

    All arrays are aligned with the batch's host order; ``required`` is the
    (host-independent) demand estimate shared by every column.
    :meth:`evaluation` materializes one column as the scalar
    :class:`PlacementEvaluation`.
    """

    pm_ids: Tuple[str, ...]
    required: Resources
    profit_eur: np.ndarray
    revenue_eur: np.ndarray
    energy_cost_eur: np.ndarray
    migration_penalty_eur: np.ndarray
    sla: np.ndarray
    given_cpu: np.ndarray
    given_mem: np.ndarray
    given_bw: np.ndarray
    used_cpu: np.ndarray
    migration_seconds: np.ndarray

    def __len__(self) -> int:
        return len(self.pm_ids)

    def evaluation(self, i: int) -> PlacementEvaluation:
        return PlacementEvaluation(
            profit_eur=float(self.profit_eur[i]),
            revenue_eur=float(self.revenue_eur[i]),
            energy_cost_eur=float(self.energy_cost_eur[i]),
            migration_penalty_eur=float(self.migration_penalty_eur[i]),
            sla=float(self.sla[i]),
            required=self.required,
            given=Resources(cpu=float(self.given_cpu[i]),
                            mem=float(self.given_mem[i]),
                            bw=float(self.given_bw[i])),
            used_cpu=float(self.used_cpu[i]),
            migration_seconds=float(self.migration_seconds[i]))


def _burst_vec(demand: float, other: np.ndarray,
               cap: np.ndarray) -> np.ndarray:
    """Vectorized twin of ``HostView.grantable``'s ``burst``."""
    total = demand + other
    blocked = (demand <= 0.0) | (total <= 0.0)
    safe_total = np.where(blocked, 1.0, total)
    out = np.minimum(cap, demand * cap / safe_total)
    return np.where(blocked, 0.0, out)


def _share_vec(demand: float, other: np.ndarray,
               cap: np.ndarray) -> np.ndarray:
    """Vectorized twin of ``HostView.grantable``'s ``share``."""
    if demand <= 0.0:
        return np.zeros_like(other)
    total = demand + other
    return np.where(total <= cap, demand, demand * cap / total)


class RoundScorer:
    """Precomputed scoring context for one packing problem over one batch.

    The one batch scorer: it scores one VM against every host of the
    batch with the arithmetic of :func:`placement_profit`, and keeps
    between VMs everything a host batch does not carry — the latency of
    every (host, source) pair, migration timing per location, the host
    power state — which costs more than the arithmetic itself once a
    scheduling round scores hundreds of VMs:

    * latency and migration columns are materialized once per (source) and
      per (origin location) and cached;
    * the estimator's batch interface (``process_rt_batch``,
      ``process_sla_batch``, ``pm_cpu_batch``) is bound once;
    * the "watts before" vector — the facility power of every host under
      the current tentative packing — is cached and refreshed only on
      :meth:`commit`.

    Against the scalar :func:`placement_profit` the only deviations are
    mathematically-neutral regroupings (a stacked per-source SLA
    reduction, prefused unit conversions) whose floating-point drift is
    bounded by a few ulp — far inside the 1e-9 equivalence contract
    (``tests/core/test_batch_scoring.py`` pins every field, and
    ``tests/core/test_round_snapshot.py`` the packed assignments).  All
    mutations must go through :meth:`commit` so the cached host state
    stays in lockstep; the underlying :class:`HostView` objects are *not*
    updated during packing (the batch columns are authoritative).
    """

    def __init__(self, problem: SchedulingProblem, batch: HostBatch) -> None:
        self.problem = problem
        self.batch = batch
        est = problem.estimator
        self._rt_fn = est.process_rt_batch
        self._sla_fn = est.process_sla_batch
        self._pm_fn = est.pm_cpu_batch
        n = len(batch)
        self.n = n
        self._pm_ids = tuple(h.pm_id for h in batch.hosts)
        self._hours = problem.interval_s / 3600.0
        # Host -> location-group index, for expanding per-location columns.
        self._locations: List[str] = list(batch.location_groups)
        loc_of = np.empty(n, dtype=np.intp)
        for li, loc in enumerate(self._locations):
            loc_of[batch.location_groups[loc]] = li
        self._loc_of = loc_of
        self._lat_cache: Dict[str, np.ndarray] = {}
        self._lat_mat_cache: Dict[Tuple[str, ...], np.ndarray] = {}
        self._mig_cache: Dict[Tuple[Optional[str], float],
                              Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Per-host committed bookkeeping, array-native: the packing loop
        # never reads the HostViews back, so commits update only these
        # (same running folds HostBatch.refresh would recompute).
        self._used_cpu_lists: List[List[float]] = [
            list(h.committed_used_cpu.values()) for h in batch.hosts]
        self._energy_k = (problem.interval_s / 3600.0 / 1000.0
                          * batch.energy_price)
        # CPU and bandwidth burst with the same formula: score both in one
        # stacked pass over precomputed (2, n) capacity rows.  The used
        # rows are mirrored from the batch and refreshed per commit.
        self._cap_cpu_bw = np.stack([batch.cap_cpu, batch.cap_bw])
        self._used_cpu_bw = np.stack([batch.used_cpu, batch.used_bw])
        self._zeros = np.zeros(n)
        # Shared as the no-migration column of every stay-at-home
        # evaluation; freeze so result consumers cannot corrupt it.
        self._zeros.setflags(write=False)
        self._unit_weights = (problem.weights.revenue == 1.0
                              and problem.weights.energy == 1.0
                              and problem.weights.migration == 1.0)
        self._refresh_host_state()

    # -- cached per-problem columns -------------------------------------------
    def _lat_col(self, src: str) -> np.ndarray:
        """Transport latency (s) from every host to ``src``, cached."""
        col = self._lat_cache.get(src)
        if col is None:
            net = self.problem.network
            per_loc = np.asarray(
                [net.host_to_source_ms(loc, src) / 1000.0
                 for loc in self._locations], dtype=float)
            col = per_loc[self._loc_of]
            # Handed out across calls (and, under the service layer, across
            # threads): freeze so a stray in-place op raises instead of
            # corrupting every later round.
            col.setflags(write=False)
            self._lat_cache[src] = col
        return col

    def _mig_cols(self, from_loc: Optional[str], image_mb: float
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Migration columns from ``from_loc`` for one image size, cached.

        Returns ``(migration_s, penalty, haircut)`` — the migration time
        to every host (equal to
        :meth:`~repro.sim.network.NetworkModel.migration_seconds`
        element-for-element; ``from_loc=None`` means "each host's own
        location", the scalar path's ``current_location or loc`` case),
        the penalty it costs and the SLA blackout factor it implies.
        Fleets typically share one image size and few origin locations, so
        these all hit the cache.  The arrays are returned read-only
        (mutation raises) — the stay-put column is patched on copies in
        :meth:`evaluate`.
        """
        key = (from_loc, image_mb)
        cached = self._mig_cache.get(key)
        if cached is None:
            net = self.problem.network
            n_loc = len(self._locations)
            denom = np.empty(n_loc)
            lat_s = np.empty(n_loc)
            for li, loc in enumerate(self._locations):
                same = from_loc is None or from_loc == loc
                gbps = net.intra_dc_gbps if same else net.bandwidth_gbps
                ms = (net.intra_dc_ms if same
                      else net.latency.ms(from_loc, loc))
                denom[li] = gbps * 1000.0
                lat_s[li] = ms / 1000.0
            migration_s = (image_mb * 8.0 / denom
                           + lat_s)[self._loc_of]
            penalty = (self.problem.prices.migration_penalty_rate
                       * migration_s / 3600.0)
            haircut = np.maximum(0.0, 1.0 - migration_s
                                 / self.problem.interval_s)
            for arr in (migration_s, penalty, haircut):
                arr.setflags(write=False)
            cached = (migration_s, penalty, haircut)
            self._mig_cache[key] = cached
        return cached

    def _lat_mat(self, srcs: Tuple[str, ...]) -> np.ndarray:
        """Stacked latency rows for one source set (row per source)."""
        mat = self._lat_mat_cache.get(srcs)
        if mat is None:
            # np.stack copies, so the stacked matrix is writable even when
            # the per-source columns are frozen — freeze it too.
            mat = np.stack([self._lat_col(s) for s in srcs])
            mat.setflags(write=False)
            self._lat_mat_cache[srcs] = mat
        return mat

    def _refresh_host_state(self) -> None:
        """Recompute the packing-dependent host vectors (after commits).

        The estimator's PM CPU for the current commitments, the facility
        watts at that CPU, masked by which hosts would be running.
        """
        batch = self.batch
        cpu_before = np.asarray(
            self._pm_fn(batch.committed_count, batch.committed_cpu_sum),
            dtype=float)
        watts_before = np.empty(self.n)
        for model, ix in batch.power_groups:
            watts_before[ix] = model.facility_watts(
                np.minimum(cpu_before[ix], batch.cap_cpu[ix]))
        running = batch.would_be_on(self.problem.auto_power_off)
        self._watts_before_run = np.where(running, watts_before, 0.0)

    def commit(self, i: int, vm_id: str, demand: Resources,
               used_cpu: float) -> None:
        """Commit a packed VM and refresh the cached host state.

        Array-native: the packing loop never reads the host views back,
        so only the batch columns are updated — with the same running
        folds :meth:`HostBatch.refresh` computes (bit-identical values).
        Only column ``i`` changed, so only it is recomputed — valid
        because ``pm_cpu_batch`` is elementwise per host (it maps each
        host's own (count, sum) aggregate; all built-in estimators are),
        as is the piecewise power curve.  A committed host always counts
        as running, so the watts-before mask needs no re-evaluation.
        """
        batch = self.batch
        # The same clip + sequential accumulation HostView.commit +
        # refresh would apply.
        batch.used_cpu[i] += max(0.0, demand.cpu)
        batch.used_mem[i] += max(0.0, demand.mem)
        batch.used_bw[i] += max(0.0, demand.bw)
        cpus = self._used_cpu_lists[i]
        cpus.append(used_cpu)
        batch.committed_cpu_sum[i] = float(np.sum(np.asarray(cpus,
                                                             dtype=float)))
        batch.committed_count[i] += 1
        self._used_cpu_bw[0, i] = batch.used_cpu[i]
        self._used_cpu_bw[1, i] = batch.used_bw[i]
        col = slice(i, i + 1)
        cpu_before = np.asarray(
            self._pm_fn(batch.committed_count[col],
                        batch.committed_cpu_sum[col]), dtype=float)
        watts = batch.hosts[i].power_model.facility_watts(
            np.minimum(cpu_before, batch.cap_cpu[col]))
        self._watts_before_run[i] = watts[0]

    # -- single-VM queries over a shared scorer ---------------------------------
    def evaluate_released(self, request: VMRequest, required: Resources,
                          agg: Optional[LoadVector] = None
                          ) -> BatchEvaluation:
        """Score ``request`` with its own VM released, on a shared batch.

        The warm-serving batch entry point: a single-VM problem differs
        from a nothing-released batch only in the VM's current host
        column (the scope release of
        :meth:`~repro.core.bestfit.SchedulingRound.problem` touches
        exactly the host holding the VM).  Instead of building a fresh
        problem + scorer per query — a full host walk plus two
        whole-batch estimator passes — the column is released in place,
        scored, and restored.  Values are bit-identical to a fresh
        single-VM problem's scorer by the same elementwise-per-host
        contract :meth:`commit` relies on: ``pm_cpu_batch``, the power
        curves and the running mask all map each host's own aggregates,
        so recomputing one column equals the full-batch recompute at
        that column.
        """
        batch = self.batch
        vm_id = request.vm_id
        cur = (batch.index.get(request.current_pm)
               if request.current_pm is not None else None)
        if cur is None or vm_id not in batch.hosts[cur].committed:
            # Unplaced VM (or host outside the batch): releasing is a
            # no-op, the shared state already matches the fresh problem.
            return self.evaluate(request, required, agg=agg)
        i = cur
        original = batch.hosts[i]
        saved = (batch.used_cpu[i], batch.used_mem[i], batch.used_bw[i],
                 batch.committed_cpu_sum[i], batch.committed_count[i],
                 self._used_cpu_lists[i], self._used_cpu_bw[0, i],
                 self._used_cpu_bw[1, i], self._watts_before_run[i])
        # The released view mirrors problem()'s scope comprehension:
        # the same dicts minus this VM, insertion order preserved, so
        # the column folds are bit-identical to a fresh build.
        released = HostView(
            pm_id=original.pm_id, location=original.location,
            capacity=original.capacity,
            power_model=original.power_model,
            energy_price_eur_kwh=original.energy_price_eur_kwh,
            initially_on=original.initially_on,
            committed={v: d for v, d in original.committed.items()
                       if v != vm_id},
            committed_used_cpu={
                v: u for v, u in original.committed_used_cpu.items()
                if v != vm_id})
        try:
            batch.hosts[i] = released
            batch.refresh(i)
            self._used_cpu_lists[i] = list(
                released.committed_used_cpu.values())
            self._used_cpu_bw[0, i] = batch.used_cpu[i]
            self._used_cpu_bw[1, i] = batch.used_bw[i]
            # One-column watts-before recompute, exactly like commit();
            # would_be_on is elementwise, so only this host's running
            # state can differ from the cached mask.
            col = slice(i, i + 1)
            cpu_before = np.asarray(
                self._pm_fn(batch.committed_count[col],
                            batch.committed_cpu_sum[col]), dtype=float)
            watts = original.power_model.facility_watts(
                np.minimum(cpu_before, batch.cap_cpu[col]))
            running = bool(batch.committed_count[i] > 0
                           or (not self.problem.auto_power_off
                               and batch.initially_on[i]))
            self._watts_before_run[i] = watts[0] if running else 0.0
            return self.evaluate(request, required, agg=agg)
        finally:
            batch.hosts[i] = original
            (batch.used_cpu[i], batch.used_mem[i], batch.used_bw[i],
             batch.committed_cpu_sum[i], batch.committed_count[i],
             self._used_cpu_lists[i], self._used_cpu_bw[0, i],
             self._used_cpu_bw[1, i],
             self._watts_before_run[i]) = saved

    # -- scoring ----------------------------------------------------------------
    def evaluate(self, request: VMRequest, required: Resources,
                 agg: Optional[LoadVector] = None) -> BatchEvaluation:
        """Score ``request`` on every host; :func:`placement_profit` per column.

        ``agg`` may pass the request's precomputed aggregate load (the
        round snapshot keeps it); omitted, it is derived from the
        request's loads.
        """
        problem, batch = self.problem, self.batch
        vm = request.vm
        if agg is None:
            agg = request.aggregate_load
        n = self.n
        if required.cpu > 0.0 and required.bw > 0.0:
            # Both bursts in one stacked pass (identical formula per row).
            demand = np.array([[required.cpu], [required.bw]])
            total = demand + self._used_cpu_bw
            blocked = total <= 0.0
            safe_total = np.where(blocked, 1.0, total)
            burst = np.where(blocked, 0.0,
                             np.minimum(self._cap_cpu_bw,
                                        demand * self._cap_cpu_bw
                                        / safe_total))
            given_cpu = burst[0]
            given_bw = burst[1]
        else:
            given_cpu = _burst_vec(required.cpu, batch.used_cpu,
                                   batch.cap_cpu)
            given_bw = _burst_vec(required.bw, batch.used_bw, batch.cap_bw)
        given_mem = _share_vec(required.mem, batch.used_mem, batch.cap_mem)
        used_cpu = np.minimum(required.cpu, given_cpu)

        # SLA: per-source fulfillment at (process + transport) RT, rate-
        # weighted — the accumulation of weighted_sla, with the latency
        # columns precomputed and the contract validated once.
        contract = request.contract
        rt_proc = self._rt_fn(vm, agg, required, given_cpu, given_mem,
                              given_bw, queue_len=request.queue_len)
        if rt_proc is not None:
            eq_rt = np.asarray(rt_proc, dtype=float)
        else:
            sla_proc = np.asarray(
                self._sla_fn(vm, agg, required, given_cpu, given_mem,
                             given_bw, contract,
                             queue_len=request.queue_len), dtype=float)
            eq_rt = rt_for_fulfillment_arrays(sla_proc, contract.rt0,
                                              contract.alpha)
        rt0 = contract.rt0
        denom = (contract.alpha - 1.0) * rt0
        loads = request.loads
        rps_vec = np.array([load.rps for load in loads.values()])
        if rps_vec.size and rps_vec.min() > 0.0:
            # All sources live: one stacked fulfillment pass over the
            # (sources, hosts) RT matrix, reduced along sources.
            rt_srcs = eq_rt + self._lat_mat(tuple(loads))
            f = np.minimum(np.maximum(1.0 - (rt_srcs - rt0) / denom, 0.0),
                           1.0)
            sla = (f * rps_vec[:, None]).sum(axis=0) / rps_vec.sum()
        else:
            # Zero-rate sources present (or no sources): weighted_sla's
            # source-by-source accumulation, skipping dead sources.
            total = None
            weight = 0.0
            for src, load in loads.items():
                rps = load.rps
                if rps == 0.0:
                    continue
                rt_src = eq_rt + self._lat_col(src)
                f = np.minimum(np.maximum(1.0 - (rt_src - rt0) / denom,
                                          0.0), 1.0)
                total = f * rps if total is None else total + f * rps
                weight += rps
            sla = total / weight if weight != 0.0 else np.ones(n)

        # Migration blackout haircut and penalty, from cached columns
        # (copied only to zero out the stay-put host).
        migration_s = self._zeros
        penalty = self._zeros
        if request.current_pm is not None:
            migration_s, penalty, haircut = self._mig_cols(
                request.current_location, vm.image_size_mb)
            cur = batch.index.get(request.current_pm)
            if cur is not None:
                migration_s = migration_s.copy()
                migration_s[cur] = 0.0
                penalty = penalty.copy()
                penalty[cur] = 0.0
                haircut = haircut.copy()
                haircut[cur] = 1.0
            sla = sla * haircut
        revenue = contract.price_eur_per_hour * self._hours * sla

        # Marginal energy: watts-before is cached; only the tentative
        # after-state depends on this VM.
        cpu_after = np.asarray(
            self._pm_fn(batch.committed_count + 1,
                        batch.committed_cpu_sum + used_cpu), dtype=float)
        if len(batch.power_groups) == 1:
            model = batch.power_groups[0][0]
            watts_after = np.asarray(model.facility_watts(
                np.minimum(cpu_after, batch.cap_cpu)), dtype=float)
        else:
            watts_after = np.empty(n)
            for model, ix in batch.power_groups:
                watts_after[ix] = model.facility_watts(
                    np.minimum(cpu_after[ix], batch.cap_cpu[ix]))
        energy = (np.maximum(0.0, watts_after - self._watts_before_run)
                  * self._energy_k)

        if self._unit_weights:
            # 1.0 * x == x exactly; skip the three no-op scalings.
            profit = revenue - energy - penalty
        else:
            w = problem.weights
            profit = (w.revenue * revenue - w.energy * energy
                      - w.migration * penalty)
        return BatchEvaluation(
            pm_ids=self._pm_ids, required=required,
            profit_eur=profit, revenue_eur=revenue, energy_cost_eur=energy,
            migration_penalty_eur=penalty, sla=sla, given_cpu=given_cpu,
            given_mem=given_mem, given_bw=given_bw, used_cpu=used_cpu,
            migration_seconds=migration_s)


def evaluate_schedule(problem: SchedulingProblem,
                      assignment: Mapping[str, str]) -> float:
    """Total objective of a complete assignment ``{vm_id: pm_id}``.

    Requests are packed in the given assignment's problem order, mirroring
    what executing the schedule would grant.  Raises on VMs without an
    assignment (constraint 1).
    """
    missing = {r.vm_id for r in problem.requests} - set(assignment)
    if missing:
        raise ValueError(f"unassigned VMs: {sorted(missing)}")
    # Work on copies so scoring never mutates the problem.
    views = {h.pm_id: HostView(
        pm_id=h.pm_id, location=h.location, capacity=h.capacity,
        power_model=h.power_model,
        energy_price_eur_kwh=h.energy_price_eur_kwh,
        initially_on=h.initially_on, committed=dict(h.committed),
        committed_used_cpu=dict(h.committed_used_cpu))
        for h in problem.hosts}
    total = 0.0
    for request in problem.requests:
        host = views[assignment[request.vm_id]]
        ev = placement_profit(problem, request, host)
        host.commit(request.vm_id, ev.required, ev.used_cpu)
        total += ev.profit_eur
    return total


@dataclass(frozen=True)
class ScheduleViolation:
    """One broken hard constraint."""

    kind: str
    detail: str


def check_schedule(problem: SchedulingProblem,
                   assignment: Mapping[str, str]) -> List[ScheduleViolation]:
    """Verify Figure 3 constraints 1 and 2 for an assignment."""
    violations: List[ScheduleViolation] = []
    host_ids = {h.pm_id for h in problem.hosts}
    for request in problem.requests:
        pm_id = assignment.get(request.vm_id)
        if pm_id is None:
            violations.append(ScheduleViolation(
                "unassigned", f"VM {request.vm_id!r} has no host"))
        elif pm_id not in host_ids:
            violations.append(ScheduleViolation(
                "unknown-host", f"VM {request.vm_id!r} -> {pm_id!r}"))
    # Constraint 2 on *grants* holds by construction (the sharing model
    # never hands out more than capacity); what we can flag is demand
    # overcommit — hosts whose packed demand exceeds capacity and will
    # therefore throttle their VMs.
    views = {h.pm_id: HostView(
        pm_id=h.pm_id, location=h.location, capacity=h.capacity,
        power_model=h.power_model,
        energy_price_eur_kwh=h.energy_price_eur_kwh,
        initially_on=h.initially_on, committed=dict(h.committed),
        committed_used_cpu=dict(h.committed_used_cpu))
        for h in problem.hosts}
    for request in problem.requests:
        pm_id = assignment.get(request.vm_id)
        if pm_id not in views:
            continue
        host = views[pm_id]
        ev = placement_profit(problem, request, host)
        host.commit(request.vm_id, ev.required, ev.used_cpu)
    for host in views.values():
        if not host.used.fits_in(host.capacity, slack=1e-6):
            violations.append(ScheduleViolation(
                "overcommit",
                f"host {host.pm_id!r} demand {host.used} exceeds capacity "
                f"{host.capacity}"))
    return violations
