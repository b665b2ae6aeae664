"""Ablation A2 — scheduler runtime scaling and the §IV.C optimizations.

The paper notes Best-Fit from scratch is O(VMs x PMs) per round and that the
two-layer decomposition plus host-offer narrowing "largely reduces solving
cost".  This bench measures (a) flat Best-Fit runtime across instance sizes
and (b) the hierarchical scheduler's narrow global problem vs a flat global
problem on a multi-PM fleet.
"""

import time

import numpy as np
import pytest

from repro.core.bestfit import descending_best_fit
from repro.core.estimators import OracleEstimator
from repro.core.hierarchical import HierarchicalScheduler
from repro.core.model import SchedulingProblem, VMRequest, HostView
from repro.core.profit import PriceBook
from repro.core.sla import PAPER_SLA
from repro.sim.demand import LoadVector
from repro.sim.machines import PhysicalMachine, VirtualMachine
from repro.sim.network import PAPER_LOCATIONS, paper_network_model
from repro.experiments.scenario import (ScenarioConfig, multidc_system,
                                        multidc_trace)


def flat_problem(n_vms, n_hosts, seed=0):
    rng = np.random.default_rng(seed)
    requests = [VMRequest(
        vm=VirtualMachine(vm_id=f"vm{i}"), contract=PAPER_SLA,
        loads={loc: LoadVector(float(rng.uniform(1, 10)), 4000.0, 0.05)
               for loc in PAPER_LOCATIONS})
        for i in range(n_vms)]
    hosts = [HostView.of(PhysicalMachine(pm_id=f"h{j}"),
                         PAPER_LOCATIONS[j % 4], 0.13)
             for j in range(n_hosts)]
    return SchedulingProblem(requests=requests, hosts=hosts,
                             network=paper_network_model(),
                             prices=PriceBook(),
                             estimator=OracleEstimator(),
                             interval_s=600.0)


@pytest.mark.parametrize("n_vms,n_hosts", [(5, 4), (10, 8), (20, 16),
                                           (40, 16)])
def test_bench_flat_bestfit_scaling(benchmark, n_vms, n_hosts):
    problem = flat_problem(n_vms, n_hosts)
    benchmark.pedantic(lambda: descending_best_fit(problem), rounds=3,
                       iterations=1)


def test_bench_hierarchical_round(benchmark):
    config = ScenarioConfig(pms_per_dc=4, n_vms=16, n_intervals=4)
    system = multidc_system(config)
    trace = multidc_trace(config)
    system.step(trace, 0)
    scheduler = HierarchicalScheduler(estimator=OracleEstimator())
    benchmark.pedantic(lambda: scheduler(system, trace, 1), rounds=3,
                       iterations=1)


class TestShape:
    def test_runtime_grows_subquadratically_in_practice(self):
        """Doubling VMs+hosts must not blow up by the 8x a naive cubic
        would give (sanity bound on the O(VMs x PMs) claim)."""
        def measure(n_vms, n_hosts):
            problem = flat_problem(n_vms, n_hosts)
            t0 = time.perf_counter()
            descending_best_fit(problem)
            return time.perf_counter() - t0

        measure(5, 4)  # warm-up
        t_small = min(measure(10, 8) for _ in range(3))
        t_big = min(measure(20, 16) for _ in range(3))
        assert t_big < 8.0 * max(t_small, 1e-4)

    def test_hierarchical_global_problem_is_narrow(self):
        """§IV.C: each DC offers only a few hosts to the global round."""
        config = ScenarioConfig(pms_per_dc=4, n_vms=16, n_intervals=4)
        system = multidc_system(config)
        trace = multidc_trace(config)
        system.step(trace, 0)
        scheduler = HierarchicalScheduler(estimator=OracleEstimator(),
                                          sla_move_threshold=1.0,
                                          max_offers_per_dc=2)
        scheduler(system, trace, 1)
        n_total_pms = len(system.pms)  # 16
        offered = len(scheduler.last_round.offered_hosts)
        assert offered < n_total_pms
