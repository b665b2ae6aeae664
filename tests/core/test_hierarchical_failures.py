"""Hierarchical scheduling under host failures (satellite of PR 3).

The robustness contract implied by the paper's framework (a VM must
always sit on exactly one live host): orphans from a crashed PM are
re-placed by the global round, a failed PM attracts no offers and no
placements, and the narrow host-offer interface behaves at its edges
(``max_offers=0``, every host nearly full).

Every recovery test runs twice: on the production ``SchedulingRound``
and on the oracle's object-walking builder and scalar loop, so each
property is shown to belong to the scheduler, not to one round path.
"""

import numpy as np
import pytest

from bestfit_oracle import oracle_rounds
from repro.core.estimators import OracleEstimator
from repro.core.hierarchical import HierarchicalScheduler
from repro.sim.engine import run_simulation
from repro.sim.failures import FailureInjector
from repro.sim.machines import Resources
from repro.experiments.scenario import (ScenarioConfig, multidc_system,
                                        multidc_trace)


@pytest.fixture(scope="module")
def config():
    return ScenarioConfig(pms_per_dc=3, n_vms=8, n_intervals=12,
                          scale=3.0, seed=9)


@pytest.fixture(scope="module")
def trace(config):
    return multidc_trace(config)


@pytest.fixture(params=[True, False])
def production_round(request):
    """True: rounds on ``SchedulingRound``; False: on the oracle."""
    if request.param:
        yield
    else:
        with oracle_rounds():
            yield


@pytest.mark.usefixtures("production_round")
class TestFailureRecovery:
    def test_orphans_replaced_by_global_round(self, config, trace):
        system = multidc_system(config)
        system.step(trace, 0)
        victim = system.host_of(sorted(system.vms)[0])
        orphans = victim.fail()
        assert orphans
        scheduler = HierarchicalScheduler(estimator=OracleEstimator())
        assignment = scheduler(system, trace, 1)
        for vm_id in orphans:
            assert vm_id in assignment
            assert assignment[vm_id] != victim.pm_id
        # The orphans were not adopted by any intra-DC problem — the
        # global round placed them.
        assert set(orphans) <= set(scheduler.last_round.movable_vms)

    def test_failed_pm_attracts_no_placements(self, config, trace):
        system = multidc_system(config)
        system.step(trace, 0)
        victim = system.pms[0]
        victim.fail()
        scheduler = HierarchicalScheduler(
            estimator=OracleEstimator(), sla_move_threshold=1.0)
        assignment = scheduler(system, trace, 1)
        assert victim.pm_id not in assignment.values()
        assert victim.pm_id not in scheduler.last_round.offered_hosts

    def test_end_to_end_with_injector(self, config, trace):
        system = multidc_system(config)
        scheduler = HierarchicalScheduler(estimator=OracleEstimator())
        injector = FailureInjector(rng=np.random.default_rng(4),
                                   fail_prob_per_interval=0.3,
                                   repair_intervals=2, max_down=2)
        history = run_simulation(system, trace, scheduler=scheduler,
                                 failure_injector=injector)
        assert injector.events, "scenario produced no failures"
        for report in history.reports:
            for event in (e for e in injector.events
                          if e.t <= report.t < e.repair_at):
                hosted = [vm for vm, pm in report.placement.items()
                          if pm == event.pm_id]
                assert not hosted, (
                    f"VMs {hosted} on failed PM {event.pm_id} at "
                    f"t={report.t}")

    def test_no_offers_and_no_current_hosts_skips_global_round(
            self, config, trace):
        """Orphans into a fleet with nothing to offer must not crash."""
        system = multidc_system(config)
        system.step(trace, 0)
        victim = system.host_of(sorted(system.vms)[0])
        orphans = victim.fail()
        scheduler = HierarchicalScheduler(
            estimator=OracleEstimator(), min_free_cpu=1e12,
            sla_move_threshold=0.0)
        # min_free_cpu is unsatisfiable -> zero offers; with threshold 0
        # only the orphans are movable, and they hold no host -> the
        # global round has no candidates and is skipped, not crashed.
        scheduler(system, trace, 1)
        diag = scheduler.last_round
        assert set(diag.movable_vms) == set(orphans)
        assert diag.offered_hosts == []


class TestOfferedHostsEdges:
    def test_max_offers_zero(self, config, trace):
        system = multidc_system(config)
        for dc in system.datacenters:
            assert dc.offered_hosts(max_offers=0) == []

    def test_all_hosts_nearly_full(self, config, trace):
        system = multidc_system(config)
        dc = system.datacenters[0]
        for pm in dc.pms:
            if not pm.on:
                pm.set_power(True)
            pm.place("filler-" + pm.pm_id,
                     Resources(cpu=pm.capacity.cpu - 1.0))
        assert dc.offered_hosts(min_free_cpu=50.0) == []

    def test_failed_pm_never_offered(self, config, trace):
        system = multidc_system(config)
        dc = system.datacenters[0]
        for pm in dc.pms:
            pm.fail()
        assert dc.offered_hosts(max_offers=10) == []

    def test_powered_off_empty_pm_is_offered(self, config, trace):
        system = multidc_system(config)
        dc = system.datacenters[0]
        for pm in dc.pms:
            for vm_id in pm.vm_ids:
                pm.evict(vm_id)
            pm.set_power(False)
        offers = dc.offered_hosts(max_offers=10)
        # Identical empty machines collapse to one representative.
        assert len(offers) == 1
        assert not offers[0].failed
