"""Ordered Descending Best-Fit scheduling (paper Algorithm 1).

MILP solvers need minutes for tens of jobs (the paper cites GUROBI taking
"several minutes to schedule 10 jobs among 40 candidate hosts"), so the paper
uses the classic Ordered Best-Fit heuristic: sort VMs by decreasing demand,
then give each VM to the host where the *profit function* — SLA revenue minus
marginal energy minus migration penalty — is highest.

Three variants reproduce the paper's intra-DC comparison (Figure 4):

* **BF** — plain Best-Fit on last-round observed usage, optimizing power and
  latency only (:class:`~repro.core.estimators.ObservedEstimator`).
* **BF-OB** — same, but booking 2x the observed resources against load peaks.
* **BF-ML** — the learned models predict requirements and SLA for tentative
  placements (:class:`~repro.core.estimators.MLEstimator`).

:class:`SchedulingRound` snapshots a
:class:`~repro.sim.multidc.MultiDCSystem` once per round and builds every
:class:`~repro.core.model.SchedulingProblem` of that round;
:func:`descending_best_fit` packs any problem, and
:func:`make_bestfit_scheduler` adapts the whole pipeline to the engine's
scheduler callable.  Every path packs with :func:`_pack_batch` over a
:class:`~repro.core.model.RoundScorer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from ..sim.demand import LoadVector
from ..sim.engine import Scheduler
from ..sim.fleet import FleetState
from ..sim.multidc import MultiDCSystem
from ..sim.machines import Resources
from ..workload.traces import WorkloadTrace
from .estimators import Estimator, ObservedEstimator
from .model import (BatchEvaluation, HostBatch, HostView, ObjectiveWeights,
                    PlacementEvaluation, RoundScorer, SchedulingProblem,
                    VMRequest)

__all__ = ["descending_best_fit", "SchedulingRound",
           "make_bestfit_scheduler", "BestFitResult"]


@dataclass(frozen=True)
class BestFitResult:
    """Assignment plus per-VM evaluations (for analysis and tests)."""

    assignment: Dict[str, str]
    evaluations: Dict[str, PlacementEvaluation]
    order: List[str]

    @property
    def total_profit(self) -> float:
        return sum(ev.profit_eur for ev in self.evaluations.values())


def descending_best_fit(problem: SchedulingProblem,
                        min_gain_eur: float = 0.0) -> BestFitResult:
    """Algorithm 1: order VMs by demand, best-profit host for each.

    The VM's current host (when present among candidates) is the baseline;
    another host is chosen only when it beats the baseline by
    ``min_gain_eur`` (migration hysteresis — the migration penalty inside
    the profit already discourages churn, the explicit margin guards
    against noise-driven flapping).

    Demands come from the estimator's scalar ``required_resources`` on
    each request's aggregate load; :meth:`SchedulingRound.pack` is the
    same packing with the round's batched estimates.  The problem is
    never mutated.
    """
    est = problem.estimator

    def required_of(requests):
        # get_data / get_required_resources for every VM first.  Demands
        # are deliberately uncapped: overload must be visible as demand
        # exceeding any host, not silently truncated.
        return {r.vm_id: est.required_resources(r.vm, r.aggregate_load,
                                                float("inf"))
                for r in requests}

    return _best_fit(problem, min_gain_eur, required_of, {})


def _best_fit(problem: SchedulingProblem, min_gain_eur: float,
              required_of: Callable[[Sequence[VMRequest]],
                                    Mapping[str, Resources]],
              aggs: Mapping[str, LoadVector]) -> BestFitResult:
    """Descending Best-Fit over one problem with a fresh :class:`RoundScorer`.

    ``required_of`` maps the problem's requests to their demand estimates
    and ``aggs`` may supply precomputed aggregate loads per VM.
    """
    if not problem.hosts:
        # An empty shard (zero-PM DC, or every host failed) with nothing
        # to place is a clean no-op round; only an actual request with no
        # candidate host anywhere is an error.
        if not problem.requests:
            return BestFitResult(assignment={}, evaluations={}, order=[])
        raise ValueError("no candidate hosts")
    # The scorer's commits are array-native (batch columns only), so the
    # problem's host views are never mutated.
    host_batch = HostBatch(problem.hosts)
    scorer = RoundScorer(problem, host_batch)
    required = required_of(problem.requests)
    # order_by_demand(vms, desc): dominant share against the largest host.
    ref = max(problem.hosts, key=lambda h: h.capacity.cpu).capacity
    order = sorted(problem.requests,
                   key=lambda r: required[r.vm_id].dominant_share(ref),
                   reverse=True)

    def evaluate(request, req):
        return scorer.evaluate(request, req, agg=aggs.get(request.vm_id))

    return _pack_batch(order, required, host_batch, min_gain_eur,
                       evaluate, scorer.commit)


def _pack_batch(order: Sequence[VMRequest],
                required: Mapping[str, Resources],
                host_batch: HostBatch,
                min_gain_eur: float,
                evaluate: Callable[[VMRequest, Resources], "BatchEvaluation"],
                commit: Callable[[int, str, Resources, float], None]
                ) -> BestFitResult:
    """The packing loop: one score vector + argmax per VM.

    Reproduces the textbook per-host loop's selection rule exactly (the
    scalar reference is ``tests/core/bestfit_oracle.py``): the running
    strict-``>`` maximum is the *first* host attaining the best score
    (ties keep the earlier host, as ``np.argmax`` does), and with a
    current host present the best challenger wins only when it beats the
    stay-put baseline by ``min_gain_eur``.  ``evaluate`` and ``commit``
    plug in the scorer: a :class:`~repro.core.model.RoundScorer`'s
    :meth:`~repro.core.model.RoundScorer.evaluate` and ``commit`` when
    packing a problem, or its ``evaluate_released`` and a no-op for
    per-VM queries.
    """
    assignment: Dict[str, str] = {}
    evaluations: Dict[str, PlacementEvaluation] = {}
    for request in order:
        req = required[request.vm_id]
        evs = evaluate(request, req)
        scores = evs.profit_eur
        cur = (host_batch.index.get(request.current_pm)
               if request.current_pm is not None else None)
        if cur is None:
            choice = int(np.argmax(scores))
            # Scalar parity: a host only becomes "best" on a strict
            # improvement over -inf, so an all--inf score vector (no
            # feasible host) must raise, not silently pick host 0.
            if scores[choice] == -np.inf:
                raise RuntimeError(
                    f"no feasible host for VM {request.vm_id!r}")
        else:
            others = scores.copy()
            others[cur] = -np.inf
            challenger = int(np.argmax(others))
            # Scalar bar: beat max(baseline + min_gain, baseline) — the
            # running best starts at the baseline, so a negative min_gain
            # never lowers the bar below staying put.
            bar = max(scores[cur] + min_gain_eur, scores[cur])
            if others[challenger] > bar:
                choice = challenger
            else:
                choice = cur
        commit(choice, request.vm_id, evs.required,
               float(evs.used_cpu[choice]))
        assignment[request.vm_id] = host_batch.hosts[choice].pm_id
        evaluations[request.vm_id] = evs.evaluation(choice)
    return BestFitResult(assignment=assignment, evaluations=evaluations,
                         order=[r.vm_id for r in order])


class SchedulingRound:
    """Array-backed snapshot of one scheduling round (system, trace, t).

    The one problem builder.  The hierarchical scheduler builds one
    problem per DC plus a global one; a ``SchedulingRound`` snapshots the
    round once, straight from the arrays the stepping path already has,
    and every problem of the round is a cheap sub-view of it:

    * requests are built from the cached
      :class:`~repro.sim.fleet.FleetState` (per-source loads and
      aggregates come from the stacked series rows, O(own sources) per
      VM) and shared by every problem of the round;
    * host views are sliced from a per-round base (one walk over the live
      PMs), releasing only the VMs in each problem's scope;
    * per-VM demand estimates come from one vectorized
      ``required_resources_batch`` call;
    * packing runs the shared loop over a
      :class:`~repro.core.model.RoundScorer`, which hoists latency,
      migration and power lookups to problem scope.

    The object-walking builder and the per-host scalar packing loop live
    on as test oracles (``tests/core/bestfit_oracle.py``):
    :meth:`problem` materializes the same :class:`SchedulingProblem` for
    any scope, and :meth:`best_fit` returns the same assignments with
    evaluations equal within 1e-9 (``tests/core/test_round_snapshot.py``
    pins both).
    """

    def __init__(self, system: MultiDCSystem, trace: WorkloadTrace, t: int,
                 estimator: Estimator,
                 weights: Optional[ObjectiveWeights] = None,
                 queue_lens: Optional[Mapping[str, float]] = None,
                 loads_override: Optional[Mapping[str, Mapping[str, object]]]
                 = None) -> None:
        self.system = system
        self.trace = trace
        self.t = t
        self.estimator = estimator
        self.weights = weights or ObjectiveWeights()
        self.queue_lens = dict(queue_lens) if queue_lens else {}
        self.loads_override = loads_override
        self.fleet = FleetState.for_system(system, trace)
        self.placement = system.placement()
        # Per-round host base: one walk over the live PMs, committed
        # demands resolved exactly like HostView.of (last known demand,
        # falling back to the recorded grant).
        demands = system.last_demands
        self._host_base: List[tuple] = []
        for dc in system.datacenters:
            for pm in dc.pms:
                if pm.failed:
                    continue
                committed = []
                for vm_id, grant in pm.granted.items():
                    demand = demands.get(vm_id, grant)
                    committed.append((vm_id, demand,
                                      min(demand.cpu, grant.cpu)))
                self._host_base.append(
                    (pm.pm_id, dc.location, dc.energy_price_eur_kwh,
                     pm.capacity, pm.power_model, pm.on, committed))
        self._requests: Dict[str, VMRequest] = {}
        self._aggs: Dict[str, LoadVector] = {}
        self._required: Dict[str, Resources] = {}
        self._required_batched = False
        # Shared nothing-released scorer for pack_each (built lazily).
        self._base: Optional[Tuple[HostBatch, RoundScorer]] = None

    # -- request construction (once per round, shared across problems) -------
    def _request(self, vm_id: str) -> VMRequest:
        request = self._requests.get(vm_id)
        if request is None:
            system = self.system
            if (self.loads_override is not None
                    and vm_id in self.loads_override):
                loads = dict(self.loads_override[vm_id])
                agg = LoadVector.combine(loads.values())
            else:
                loads = self.fleet.loads_at(vm_id, self.t)
                agg = self.fleet.aggregate_load_at(vm_id, self.t)
            pm_id = self.placement.get(vm_id)
            request = VMRequest(
                vm=system.vms[vm_id], contract=system.contracts[vm_id],
                loads=loads, current_pm=pm_id,
                current_location=(system.dc_of_pm(pm_id).location
                                  if pm_id else None),
                queue_len=float(self.queue_lens.get(vm_id, 0.0)))
            self._requests[vm_id] = request
            self._aggs[vm_id] = agg
        return request

    def _required_for(self, requests: Sequence[VMRequest]
                      ) -> Dict[str, Resources]:
        """Demand estimates for the given requests.

        Every traced VM of the round is estimated in one
        ``required_resources_batch`` call (amortized over all problems);
        VMs with overridden loads, and requests of a problem this round
        did not build, take the scalar call on their aggregate load.
        """
        if not self._required_batched:
            self._required_batched = True
            fleet = self.fleet
            overridden = (set(self.loads_override)
                          if self.loads_override is not None else ())
            vm_ids = [v for v in fleet.traced_ids if v not in overridden]
            if vm_ids:
                rows = [fleet.vm_index[v] for v in vm_ids]
                rps, bpr, cpr = fleet.aggregate_columns(self.t)
                vms = [self.system.vms[v] for v in vm_ids]
                cpu, mem, bw = self.estimator.required_resources_batch(
                    vms, rps[rows], bpr[rows], cpr[rows], float("inf"))
                for j, v in enumerate(vm_ids):
                    self._required[v] = Resources(
                        cpu=float(cpu[j]), mem=float(mem[j]),
                        bw=float(bw[j]))
        required: Dict[str, Resources] = {}
        for request in requests:
            vm_id = request.vm_id
            req = self._required.get(vm_id)
            if req is None:
                agg = self._aggs.get(vm_id)
                if agg is None:
                    agg = request.aggregate_load
                req = self.estimator.required_resources(
                    request.vm, agg, float("inf"))
                self._required[vm_id] = req
            required[vm_id] = req
        return required

    # -- problem sub-views --------------------------------------------------
    def problem(self, scope_vms: Optional[Sequence[str]] = None,
                scope_pms: Optional[Sequence[str]] = None
                ) -> SchedulingProblem:
        """One scheduling problem of this round.

        ``scope_vms`` limits which VMs are rescheduled (default: every VM,
        so orphans from host failures are re-placed); ``scope_pms`` limits
        candidate hosts (default: every live PM).  VMs in scope are
        released from the host views; out-of-scope VMs stay committed and
        constrain free capacity — the narrow interface the hierarchical
        scheduler builds on.  Failed PMs are never candidates.  VMs
        without any trace series (and no loads override) are skipped,
        exactly like stepping skips them: an untraced VM has no load to
        plan for, so it stays put and keeps constraining its host as an
        out-of-scope resident.
        """
        vm_ids = (list(scope_vms) if scope_vms is not None
                  else sorted(self.system.vms))
        traced = self.fleet.traced_set
        overridden = (self.loads_override
                      if self.loads_override is not None else ())
        vm_ids = [v for v in vm_ids if v in traced or v in overridden]
        requests = [self._request(v) for v in vm_ids]
        scope = set(vm_ids)
        wanted = set(scope_pms) if scope_pms is not None else None
        hosts: List[HostView] = []
        for (pm_id, location, price, capacity, power_model, on,
             committed) in self._host_base:
            if wanted is not None and pm_id not in wanted:
                continue
            hosts.append(HostView(
                pm_id=pm_id, location=location, capacity=capacity,
                power_model=power_model, energy_price_eur_kwh=price,
                initially_on=on,
                committed={v: d for v, d, _u in committed
                           if v not in scope},
                committed_used_cpu={v: u for v, d, u in committed
                                    if v not in scope}))
        return SchedulingProblem(
            requests=requests, hosts=hosts, network=self.system.network,
            prices=self.system.prices, estimator=self.estimator,
            interval_s=self.trace.interval_s, weights=self.weights,
            auto_power_off=self.system.auto_power_off)

    # -- packing --------------------------------------------------------------
    def pack(self, problem: SchedulingProblem,
             min_gain_eur: float = 0.0) -> BestFitResult:
        """Descending Best-Fit over a problem, with this round's estimates.

        Same contract as :func:`descending_best_fit` — the problem is
        never mutated, the VM order and the selection rule are identical —
        but demands come from the round's batched estimates and aggregate
        loads from its snapshot.
        """
        return _best_fit(problem, min_gain_eur, self._required_for,
                         self._aggs)

    def best_fit(self, scope_vms: Optional[Sequence[str]] = None,
                 scope_pms: Optional[Sequence[str]] = None,
                 min_gain_eur: float = 0.0) -> BestFitResult:
        """:meth:`problem` + :meth:`pack` in one call."""
        return self.pack(self.problem(scope_vms, scope_pms),
                         min_gain_eur=min_gain_eur)

    # -- per-VM placement queries (the warm-serving entry point) --------------
    def _base_scorer(self) -> Optional[Tuple[HostBatch, RoundScorer]]:
        """The shared nothing-released (batch, scorer) pair, built once;
        None while the round has no live host."""
        if self._base is None:
            problem = self.problem(scope_vms=[])
            if problem.hosts:
                host_batch = HostBatch(problem.hosts)
                self._base = (host_batch, RoundScorer(problem, host_batch))
        return self._base

    def pack_each(self, vm_ids: Sequence[str],
                  min_gain_eur: float = 0.0) -> Dict[str, BestFitResult]:
        """Pack each VM as its own single-VM problem, sharing one scorer.

        Bit-identical, per VM, to
        ``self.pack(self.problem(scope_vms=[vm_id]), min_gain_eur)`` —
        the placement-query entry point the service layer batches on.
        Where per-query packing pays a fresh problem build, a
        ``HostBatch`` walk and two whole-batch estimator passes each
        time, this shares one nothing-released scorer across the whole
        query set and releases/restores exactly the queried VM's host
        column per query
        (:meth:`~repro.core.model.RoundScorer.evaluate_released`).
        Untraced VMs (no loads, nothing to place) get an empty result,
        mirroring the empty problem the per-problem path would build.
        """
        base = self._base_scorer()
        if base is None:
            # No live host: each query gets its own problem's no-op
            # result or "no candidate hosts" error.
            return {vm_id: self.best_fit(scope_vms=[vm_id],
                                         min_gain_eur=min_gain_eur)
                    for vm_id in vm_ids}
        host_batch, scorer = base
        traced = self.fleet.traced_set
        overridden = (self.loads_override
                      if self.loads_override is not None else ())
        results: Dict[str, BestFitResult] = {}

        def evaluate(request, req):
            return scorer.evaluate_released(
                request, req, agg=self._aggs.get(request.vm_id))

        def no_commit(i, vm_id, res, used_cpu):
            # A single-VM problem commits after its only evaluation;
            # the result is already determined, so the shared batch
            # must stay untouched.
            return None

        for vm_id in vm_ids:
            if vm_id not in traced and vm_id not in overridden:
                results[vm_id] = BestFitResult(assignment={},
                                               evaluations={}, order=[])
                continue
            request = self._request(vm_id)
            required = self._required_for([request])
            results[vm_id] = _pack_batch([request], required, host_batch,
                                         min_gain_eur, evaluate,
                                         no_commit)
        return results


def make_bestfit_scheduler(estimator: Estimator,
                           weights: Optional[ObjectiveWeights] = None,
                           min_gain_eur: float = 0.0,
                           scope_pms: Optional[Sequence[str]] = None,
                           forecaster=None) -> Scheduler:
    """Adapt Best-Fit over a fixed estimator to the engine's interface.

    Each round is one :class:`SchedulingRound` problem over ``scope_pms``
    (default: every live PM).  With a
    :class:`repro.workload.forecast.LoadForecaster`, the scheduler plans
    round ``t`` on *forecast* load built only from completed intervals
    (< t), instead of the harness default of handing it the current
    interval's measured load.
    """

    def schedule(system: MultiDCSystem, trace: WorkloadTrace,
                 t: int) -> Dict[str, str]:
        if isinstance(estimator, ObservedEstimator):
            estimator.refresh()
        loads_override = None
        if forecaster is not None:
            from ..workload.forecast import forecast_loads
            # Catch up on every completed interval (robust to
            # schedule_every > 1), then forecast t.
            while forecaster.n_observed < t:
                forecaster.observe_interval(trace, forecaster.n_observed)
            loads_override = forecast_loads(forecaster, trace,
                                            vm_ids=sorted(system.vms))
        round_ = SchedulingRound(system, trace, t, estimator,
                                 weights=weights,
                                 loads_override=loads_override)
        problem = round_.problem(scope_pms=scope_pms)
        if not problem.requests:
            return {}
        return round_.pack(problem, min_gain_eur=min_gain_eur).assignment

    return schedule
