"""Two-layer (hierarchical) multi-DC scheduling (paper §III.B, §IV.C).

Multi-DC systems decentralize: each DC manages its own PMs and VMs, and the
global scheduler sees only a *narrow interface* per DC —

* the VMs that "could improve [their] QoS if moved across DCs (namely,
  because all PMs in their current DC already have a very high load)", and
* "a set of available physical machines" offered as candidate hosts
  (identical empty machines collapsed, almost-full machines withheld).

Each round therefore runs a number of intra-DC Best-Fit problems (starting
from the previous, usually good, schedule) plus one small global problem,
which is what keeps the method scalable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..sim.engine import Scheduler
from ..sim.multidc import MultiDCSystem
from ..workload.traces import WorkloadTrace
from .bestfit import SchedulingRound
from .estimators import Estimator, ObservedEstimator
from .model import ObjectiveWeights

__all__ = ["HierarchicalScheduler", "RoundDiagnostics",
           "DEFAULT_MIN_GAIN_EUR"]

#: Default migration hysteresis of the hierarchical scheduler, EUR per
#: round.  At ``min_gain_eur=0`` the 8-DC fleet scenario churns heavily:
#: thousands of moves whose scored gain is within numerical noise of
#: staying put, each paying a real blackout penalty (the paper's
#: migration-penalty narrative: "pointless moves don't happen").  Half a
#: tenth of a euro-cent is the revenue-noise floor of one 10-minute
#: round — it suppresses the churn (measured ~3x fewer migrations with
#: *higher* SLA and profit) without blocking tariff- or SLA-driven moves,
#: whose gains are orders of magnitude larger.  Pass ``min_gain_eur=0.0``
#: to opt out (the pre-PR-4 behaviour).
DEFAULT_MIN_GAIN_EUR = 0.0005


@dataclass
class RoundDiagnostics:
    """What the last scheduling round did (observability for experiments)."""

    t: int = -1
    intra_problems: int = 0
    intra_vms: int = 0
    movable_vms: List[str] = field(default_factory=list)
    offered_hosts: List[str] = field(default_factory=list)
    global_moves: Dict[str, str] = field(default_factory=dict)


@dataclass
class HierarchicalScheduler:
    """Intra-DC consolidation plus a global inter-DC round.

    Parameters
    ----------
    estimator:
        Knowledge source for both layers (ML, observed, or oracle).
    weights:
        Objective weights shared by both layers.
    sla_move_threshold:
        A VM whose best *local* placement still scores below this SLA is
        offered to the global round.
    max_offers_per_dc, min_free_cpu:
        The host-offer narrowing of §IV.C.
    min_gain_eur:
        Migration hysteresis of the underlying Best-Fit: a move must beat
        staying put by at least this many EUR to happen.  Defaults to
        :data:`DEFAULT_MIN_GAIN_EUR` (churn damping); pass ``0.0`` to
        opt out.

    Each round snapshots the system once as a
    :class:`~repro.core.bestfit.SchedulingRound`; every intra-DC and
    global problem is a sub-view of it.
    """

    estimator: Estimator
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    sla_move_threshold: float = 0.95
    max_offers_per_dc: int = 2
    min_free_cpu: float = 50.0
    min_gain_eur: float = DEFAULT_MIN_GAIN_EUR
    last_round: RoundDiagnostics = field(default_factory=RoundDiagnostics)

    def __post_init__(self) -> None:
        if not 0.0 <= self.sla_move_threshold <= 1.0:
            raise ValueError("sla_move_threshold must lie in [0, 1]")

    # The engine invokes the instance directly as its Scheduler callable.
    def __call__(self, system: MultiDCSystem, trace: WorkloadTrace,
                 t: int) -> Dict[str, str]:
        if isinstance(self.estimator, ObservedEstimator):
            self.estimator.refresh()
        diag = RoundDiagnostics(t=t)
        assignment: Dict[str, str] = {}
        movable: List[str] = []
        # One snapshot serves every problem of this round (phase 1 + 2).
        round_ = SchedulingRound(system, trace, t, self.estimator,
                                 weights=self.weights)

        def solve(scope_vms, scope_pms):
            return round_.best_fit(scope_vms=scope_vms,
                                   scope_pms=scope_pms,
                                   min_gain_eur=self.min_gain_eur)

        # -- Phase 1: one Best-Fit problem per DC ---------------------------
        for dc in system.datacenters:
            local_vms = sorted(dc.vm_ids)
            if not local_vms:
                continue
            result = solve(local_vms, [pm.pm_id for pm in dc.pms])
            diag.intra_problems += 1
            diag.intra_vms += len(local_vms)
            for vm_id, pm_id in result.assignment.items():
                assignment[vm_id] = pm_id
            for vm_id in local_vms:
                # Untraced VMs are filtered out of the problem and have no
                # evaluation; they stay put and are never offered around.
                evaluation = result.evaluations.get(vm_id)
                if (evaluation is not None
                        and evaluation.sla < self.sla_move_threshold):
                    movable.append(vm_id)

        # Orphaned VMs (e.g. after a host failure) belong to no DC, so no
        # intra-DC round covers them; the global round must place them.
        placed_now = set(system.placement())
        orphans = sorted(set(system.vms) - placed_now)
        movable.extend(orphans)

        # -- Phase 2: the global round over the narrow interface -------------
        if movable:
            offers: List[str] = []
            current_hosts: Set[str] = set()
            placement = system.placement()
            for vm_id in movable:
                pm_id = placement.get(vm_id)
                if pm_id is not None:
                    current_hosts.add(pm_id)
            for dc in system.datacenters:
                for pm in dc.offered_hosts(min_free_cpu=self.min_free_cpu,
                                           max_offers=self.max_offers_per_dc):
                    offers.append(pm.pm_id)
            candidate_pms = sorted(set(offers) | current_hosts)
            # No DC offered anything and no movable VM holds a host (e.g.
            # only freshly-orphaned VMs after a failure into a full
            # fleet): there is no global problem to solve this round —
            # orphans wait for capacity instead of crashing the round.
            if candidate_pms:
                result = solve(movable, candidate_pms)
                for vm_id, pm_id in result.assignment.items():
                    if assignment.get(vm_id) != pm_id:
                        diag.global_moves[vm_id] = pm_id
                    assignment[vm_id] = pm_id
            diag.offered_hosts = candidate_pms
        diag.movable_vms = movable
        self.last_round = diag
        return assignment
