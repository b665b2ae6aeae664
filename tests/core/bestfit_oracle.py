"""Reference Best-Fit: the object-walking problem builder and the
per-host scalar packing loop.

``build_problem`` snapshots a live system into a ``SchedulingProblem`` by
walking its Python objects once per problem, and ``best_fit_scalar``
packs it with one scalar ``placement_profit`` call per (VM, host) pair.
These are the textbook forms of Algorithm 1 that
``SchedulingRound.problem`` and the ``_pack_batch`` loop over a
``RoundScorer`` must reproduce; they live here, outside the package,
because production only runs the array-backed path.

``OracleRound`` and ``oracle_rounds`` run the production
``HierarchicalScheduler`` on top of the pair, which makes a reference
for the two-layer scheduler without a second copy of its logic.
"""

from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.bestfit import BestFitResult
from repro.core.estimators import Estimator
from repro.core.model import (HostView, ObjectiveWeights,
                              PlacementEvaluation, SchedulingProblem,
                              VMRequest, placement_profit)
from repro.sim.machines import Resources
from repro.sim.multidc import MultiDCSystem
from repro.workload.traces import WorkloadTrace


def reference_best_fit(problem: SchedulingProblem,
                       min_gain_eur: float = 0.0) -> BestFitResult:
    """``descending_best_fit`` with the scalar loop: copy the hosts,
    estimate every demand with the scalar ``required_resources``, order
    by dominant share, pack with :func:`best_fit_scalar`."""
    if not problem.hosts:
        if not problem.requests:
            return BestFitResult(assignment={}, evaluations={}, order=[])
        raise ValueError("no candidate hosts")
    hosts = [HostView(pm_id=h.pm_id, location=h.location,
                      capacity=h.capacity, power_model=h.power_model,
                      energy_price_eur_kwh=h.energy_price_eur_kwh,
                      initially_on=h.initially_on,
                      committed=dict(h.committed),
                      committed_used_cpu=dict(h.committed_used_cpu))
             for h in problem.hosts]
    est = problem.estimator
    required = {
        r.vm_id: est.required_resources(r.vm, r.aggregate_load,
                                        float("inf"))
        for r in problem.requests}
    ref = max(hosts, key=lambda h: h.capacity.cpu).capacity
    order = sorted(problem.requests,
                   key=lambda r: required[r.vm_id].dominant_share(ref),
                   reverse=True)
    return best_fit_scalar(problem, order, required, hosts, min_gain_eur)


def best_fit_scalar(problem: SchedulingProblem,
                    order: Sequence[VMRequest],
                    required: Mapping[str, Resources],
                    hosts: List[HostView],
                    min_gain_eur: float) -> BestFitResult:
    """Reference packing loop: one scalar ``placement_profit`` per host."""
    assignment: Dict[str, str] = {}
    evaluations: Dict[str, PlacementEvaluation] = {}
    for request in order:
        req = required[request.vm_id]
        best_host: Optional[HostView] = None
        best_ev: Optional[PlacementEvaluation] = None
        baseline = -np.inf
        # Baseline: staying put (when the current host is a candidate).
        if request.current_pm is not None:
            for host in hosts:
                if host.pm_id == request.current_pm:
                    ev = placement_profit(problem, request, host, required=req)
                    best_host, best_ev, baseline = host, ev, ev.profit_eur
                    break
        for host in hosts:
            if request.current_pm is not None and host.pm_id == request.current_pm:
                continue
            ev = placement_profit(problem, request, host, required=req)
            threshold = (baseline + min_gain_eur
                         if best_ev is not None else -np.inf)
            current_best = (best_ev.profit_eur
                            if best_ev is not None else -np.inf)
            if ev.profit_eur > max(threshold, current_best):
                best_host, best_ev = host, ev
        if best_host is None or best_ev is None:
            raise RuntimeError(
                f"no feasible host for VM {request.vm_id!r}")
        best_host.commit(request.vm_id, best_ev.required, best_ev.used_cpu)
        assignment[request.vm_id] = best_host.pm_id
        evaluations[request.vm_id] = best_ev
    return BestFitResult(assignment=assignment, evaluations=evaluations,
                         order=[r.vm_id for r in order])


def build_problem(system: MultiDCSystem, trace: WorkloadTrace, t: int,
                  estimator: Estimator,
                  scope_vms: Optional[Sequence[str]] = None,
                  scope_pms: Optional[Sequence[str]] = None,
                  weights: Optional[ObjectiveWeights] = None,
                  queue_lens: Optional[Mapping[str, float]] = None,
                  loads_override: Optional[Mapping[str, Mapping[str, object]]] = None
                  ) -> SchedulingProblem:
    """Snapshot one scheduling round from live system state.

    ``scope_vms`` limits which VMs are rescheduled (default: all placed
    VMs); ``scope_pms`` limits candidate hosts (default: every PM).  VMs in
    scope are released from the host views; out-of-scope VMs stay committed
    and constrain free capacity — this is the narrow interface the
    hierarchical scheduler builds on.

    VMs without any trace series (and no ``loads_override`` entry) are
    skipped, exactly like both stepping paths skip them: an untraced VM has
    no load to plan for, so it stays put and keeps constraining the host
    views as an out-of-scope resident.
    """
    placement = system.placement()
    # Default scope is *all* VMs, not just placed ones: orphans from host
    # failures must be re-placed on the next round.
    vm_ids = (list(scope_vms) if scope_vms is not None
              else sorted(system.vms))
    vm_ids = [vm_id for vm_id in vm_ids
              if trace.has_vm(vm_id)
              or (loads_override is not None and vm_id in loads_override)]
    queue_lens = queue_lens or {}
    requests: List[VMRequest] = []
    for vm_id in vm_ids:
        vm = system.vms[vm_id]
        pm_id = placement.get(vm_id)
        if loads_override is not None and vm_id in loads_override:
            loads = dict(loads_override[vm_id])
        else:
            loads = trace.load_at(vm_id, t)
        requests.append(VMRequest(
            vm=vm, contract=system.contracts[vm_id],
            loads=loads,
            current_pm=pm_id,
            current_location=(system.dc_of_pm(pm_id).location
                              if pm_id else None),
            queue_len=float(queue_lens.get(vm_id, 0.0))))
    scope = set(vm_ids)
    hosts: List[HostView] = []
    wanted = set(scope_pms) if scope_pms is not None else None
    for dc in system.datacenters:
        for pm in dc.pms:
            if wanted is not None and pm.pm_id not in wanted:
                continue
            if pm.failed:
                continue
            hosts.append(HostView.of(pm, dc.location,
                                     dc.energy_price_eur_kwh,
                                     exclude_vms=tuple(scope),
                                     demands=system.last_demands))
    return SchedulingProblem(
        requests=requests, hosts=hosts, network=system.network,
        prices=system.prices, estimator=estimator,
        interval_s=trace.interval_s,
        weights=weights or ObjectiveWeights(),
        auto_power_off=system.auto_power_off)



class OracleRound:
    """The scheduler-facing surface of ``SchedulingRound`` over the oracle.

    Every ``best_fit`` rebuilds its problem from live state with
    :func:`build_problem` and packs it with :func:`reference_best_fit`.
    A scheduler does not mutate the system inside a round, so this
    equals one snapshot taken at construction.
    """

    def __init__(self, system: MultiDCSystem, trace: WorkloadTrace, t: int,
                 estimator: Estimator,
                 weights: Optional[ObjectiveWeights] = None) -> None:
        self.system = system
        self.trace = trace
        self.t = t
        self.estimator = estimator
        self.weights = weights

    def best_fit(self, scope_vms: Optional[Sequence[str]] = None,
                 scope_pms: Optional[Sequence[str]] = None,
                 min_gain_eur: float = 0.0) -> BestFitResult:
        problem = build_problem(self.system, self.trace, self.t,
                                self.estimator, scope_vms=scope_vms,
                                scope_pms=scope_pms, weights=self.weights)
        return reference_best_fit(problem, min_gain_eur=min_gain_eur)


@contextmanager
def oracle_rounds():
    """Inside the block, ``HierarchicalScheduler`` rounds are
    :class:`OracleRound` s: the scheduler becomes its own reference."""
    from repro.core import hierarchical
    saved = hierarchical.SchedulingRound
    hierarchical.SchedulingRound = OracleRound
    try:
        yield
    finally:
        hierarchical.SchedulingRound = saved
