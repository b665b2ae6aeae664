"""Best-Fit edge cases: infeasible rounds, untraced VMs, empty problems.

Pinned here:

* the packing loop once silently assigned host 0 via ``np.argmax`` when
  every candidate scored ``-inf``, where the scalar reference raises
  ``"no feasible host"``;
* problem building once crashed with ``KeyError`` on a placed-but-untraced
  VM (stepping deliberately skips untraced VMs; the scheduler now does the
  same);
* an empty problem (zero-PM DC, or a shard whose hosts all failed, with
  nothing to place) is a clean no-op round — only an actual request with
  no candidate host anywhere is an error.
"""

import numpy as np
import pytest

from bestfit_oracle import build_problem, reference_best_fit
from repro.core.bestfit import (BestFitResult, SchedulingRound,
                                descending_best_fit)
from repro.core.estimators import OracleEstimator
from repro.core.hierarchical import HierarchicalScheduler
from repro.core.model import (HostBatch, HostView, RoundScorer,
                              SchedulingProblem, VMRequest)
from repro.core.profit import PriceBook
from repro.core.sla import SLAContract
from repro.sim.demand import LoadVector
from repro.sim.machines import Resources, VirtualMachine
from repro.sim.network import paper_network_model
from repro.sim.power import atom_power_model
from repro.experiments.scenario import (ScenarioConfig, multidc_system,
                                        multidc_trace)


def hostile_problem(n_hosts=3, current_pm=None, current_location=None):
    """Every placement costs infinite energy -> every profit is -inf."""
    hosts = [HostView(pm_id=f"pm{i}", location="BCN",
                      capacity=Resources(cpu=400.0, mem=4096.0,
                                         bw=125_000.0),
                      power_model=atom_power_model(),
                      energy_price_eur_kwh=float("inf"))
             for i in range(n_hosts)]
    request = VMRequest(
        vm=VirtualMachine(vm_id="vm0"), contract=SLAContract(),
        loads={"BCN": LoadVector(10.0, 4000.0, 0.02)},
        current_pm=current_pm, current_location=current_location)
    return SchedulingProblem(
        requests=[request], hosts=hosts, network=paper_network_model(),
        prices=PriceBook(), estimator=OracleEstimator())


class TestAllInfRound:
    def test_scalar_raises_without_current_host(self):
        with pytest.raises(RuntimeError, match="no feasible host"):
            reference_best_fit(hostile_problem())

    def test_batch_matches_scalar_raise(self):
        with pytest.raises(RuntimeError, match="no feasible host"):
            descending_best_fit(hostile_problem())

    def test_both_paths_stay_put_with_current_host(self):
        batch = descending_best_fit(
            hostile_problem(current_pm="pm1", current_location="BCN"))
        scalar = reference_best_fit(
            hostile_problem(current_pm="pm1", current_location="BCN"))
        assert batch.assignment == scalar.assignment == {"vm0": "pm1"}

    def test_scores_really_were_all_inf(self):
        problem = hostile_problem()
        request = problem.requests[0]
        req = problem.estimator.required_resources(
            request.vm, request.aggregate_load, float("inf"))
        scorer = RoundScorer(problem, HostBatch(problem.hosts))
        assert np.all(np.isneginf(scorer.evaluate(request, req).profit_eur))


@pytest.fixture(scope="module")
def config():
    return ScenarioConfig(pms_per_dc=3, n_vms=10, n_intervals=12,
                          scale=3.0, seed=5)


@pytest.fixture(scope="module")
def trace(config):
    return multidc_trace(config)


def stepped_system(config, trace):
    system = multidc_system(config)
    system.step(trace, 0)
    return system


class TestUntracedVMs:
    @pytest.fixture()
    def system_and_trace(self):
        config = ScenarioConfig(pms_per_dc=2, n_vms=4, n_intervals=6,
                                seed=3)
        trace = multidc_trace(config)
        system = multidc_system(config)
        system.step(trace, 0)
        # A placed VM the trace knows nothing about (e.g. an internal
        # service deployed out-of-band between rounds).
        system.vms["ghost"] = VirtualMachine(vm_id="ghost")
        system.contracts.setdefault("ghost", SLAContract())
        system.deploy("ghost", system.pms[0].pm_id)
        return system, trace

    def test_problem_skips_untraced(self, system_and_trace):
        system, trace = system_and_trace
        problem = SchedulingRound(system, trace, 1,
                                  OracleEstimator()).problem()
        ids = {r.vm_id for r in problem.requests}
        assert "ghost" not in ids
        assert ids == set(system.vms) - {"ghost"}

    def test_untraced_vm_still_constrains_capacity(self, system_and_trace):
        system, trace = system_and_trace
        problem = SchedulingRound(system, trace, 1,
                                  OracleEstimator()).problem()
        host = problem.host(system.pms[0].pm_id)
        assert "ghost" in host.committed

    def test_explicit_scope_tolerated(self, system_and_trace):
        system, trace = system_and_trace
        problem = SchedulingRound(system, trace, 1, OracleEstimator()
                                  ).problem(scope_vms=sorted(system.vms))
        assert "ghost" not in {r.vm_id for r in problem.requests}

    def test_round_snapshot_matches_reference(self, system_and_trace):
        system, trace = system_and_trace
        round_ = SchedulingRound(system, trace, 1, OracleEstimator())
        problem = round_.problem()
        ref = build_problem(system, trace, 1, OracleEstimator())
        assert ([r.vm_id for r in problem.requests]
                == [r.vm_id for r in ref.requests])
        fast = round_.pack(problem)
        scalar = reference_best_fit(ref)
        assert fast.assignment == scalar.assignment

    def test_hierarchical_round_tolerates_untraced(self, system_and_trace):
        system, trace = system_and_trace
        scheduler = HierarchicalScheduler(estimator=OracleEstimator())
        assignment = scheduler(system, trace, 1)
        assert "ghost" not in assignment

    def test_loads_override_reinstates_vm(self, system_and_trace):
        system, trace = system_and_trace
        override = {"ghost": {"BCN": LoadVector(5.0, 4000.0, 0.02)}}
        problem = SchedulingRound(system, trace, 1, OracleEstimator(),
                                  loads_override=override).problem()
        assert "ghost" in {r.vm_id for r in problem.requests}


class TestEmptyProblems:
    def test_empty_problem_is_noop(self, config, trace):
        system = stepped_system(config, trace)
        problem = SchedulingRound(system, trace, 1, OracleEstimator()
                                  ).problem(scope_vms=[], scope_pms=[])
        assert not problem.hosts and not problem.requests
        result = descending_best_fit(problem)
        assert result == BestFitResult(assignment={}, evaluations={},
                                       order=[])

    def test_round_pack_empty_problem_is_noop(self, config, trace):
        system = stepped_system(config, trace)
        round_ = SchedulingRound(system, trace, 1, OracleEstimator())
        result = round_.best_fit(scope_vms=[], scope_pms=[])
        assert result.assignment == {}
        assert result.evaluations == {}
        assert result.order == []

    def test_requests_without_hosts_still_error(self, config, trace):
        system = stepped_system(config, trace)
        vm = sorted(system.vms)[0]
        round_ = SchedulingRound(system, trace, 1, OracleEstimator())
        with pytest.raises(ValueError, match="no candidate hosts"):
            descending_best_fit(round_.problem(scope_vms=[vm],
                                               scope_pms=[]))
        with pytest.raises(ValueError, match="no candidate hosts"):
            round_.best_fit(scope_vms=[vm], scope_pms=[])

    def test_all_hosts_failed_shard_with_no_requests(self, config, trace):
        system = stepped_system(config, trace)
        dc = system.datacenters[2]
        refuge = [pm.pm_id for other in system.datacenters
                  if other is not dc for pm in other.pms]
        moves = {vm_id: refuge[i % len(refuge)] for i, vm_id in
                 enumerate(sorted(dc.vm_ids))}
        system.apply_schedule(moves)
        for pm in dc.pms:
            pm.fail()
        round_ = SchedulingRound(system, trace, 1, OracleEstimator())
        result = round_.best_fit(scope_vms=sorted(dc.vm_ids),
                                 scope_pms=[pm.pm_id for pm in dc.pms])
        assert result.assignment == {}

    def test_zero_vm_dc_contributes_no_intra_problem(self, config, trace):
        system = stepped_system(config, trace)
        empty_dc = system.datacenters[0]
        refuge = [pm.pm_id for dc in system.datacenters[1:]
                  for pm in dc.pms]
        system.apply_schedule({vm_id: refuge[i % len(refuge)]
                               for i, vm_id in
                               enumerate(sorted(empty_dc.vm_ids))})
        assert not empty_dc.vm_ids
        scheduler = HierarchicalScheduler(estimator=OracleEstimator())
        scheduler(system, trace, 1)
        assert (scheduler.last_round.intra_problems
                == len(system.datacenters) - 1)
