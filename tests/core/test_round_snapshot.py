"""Differential tests: round-snapshot scheduling vs the reference oracle.

The contract: for any scope, ``SchedulingRound.problem`` materializes the
same :class:`~repro.core.model.SchedulingProblem` as the object-walking
``build_problem`` of ``bestfit_oracle``, and ``SchedulingRound.best_fit``
returns identical assignments to the oracle's scalar packing loop with
per-VM evaluations equal within 1e-9 on every field — across estimators
(oracle RT path, observed direct-SLA path, ML), scopes (intra-DC, global,
default), failures, forecaster load overrides and untraced VMs.
"""

import numpy as np
import pytest

# The differential assertion helpers moved to the arena's shared
# invariant suite (PR 7); these tests keep pinning the same contract
# through the shared implementation.
from repro.arena.invariants import (assert_pack_results_equal,
                                    assert_problems_equal)
from bestfit_oracle import build_problem, oracle_rounds, reference_best_fit
from repro.core.bestfit import SchedulingRound, make_bestfit_scheduler
from repro.core.estimators import ObservedEstimator, OracleEstimator
from repro.core.hierarchical import HierarchicalScheduler
from repro.core.model import ObjectiveWeights
from repro.experiments.scaling import (synthetic_fleet_system,
                                      synthetic_hierarchical_fleet)
from repro.experiments.scenario import (ScenarioConfig, multidc_system,
                                        multidc_trace)
from repro.sim.engine import run_simulation
from repro.sim.failures import FailureInjector
from repro.sim.fleet import report_max_abs_diff
from repro.sim.monitor import Monitor

assert_results_equal = assert_pack_results_equal


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


class TestProblemParity:
    def test_default_scope(self, config, trace):
        system = stepped_system(config, trace)
        est = OracleEstimator()
        fast = SchedulingRound(system, trace, 1, est).problem()
        ref = build_problem(system, trace, 1, est)
        assert_problems_equal(fast, ref)

    def test_scoped_subproblems(self, config, trace):
        system = stepped_system(config, trace)
        est = OracleEstimator()
        round_ = SchedulingRound(system, trace, 2, est)
        for dc in system.datacenters:
            scope_vms = sorted(dc.vm_ids)
            scope_pms = [pm.pm_id for pm in dc.pms]
            assert_problems_equal(
                round_.problem(scope_vms, scope_pms),
                build_problem(system, trace, 2, est,
                              scope_vms=scope_vms, scope_pms=scope_pms))

    def test_failed_pm_excluded(self, config, trace):
        system = stepped_system(config, trace)
        pm = system.pms[0]
        pm.fail()
        est = OracleEstimator()
        fast = SchedulingRound(system, trace, 1, est).problem()
        ref = build_problem(system, trace, 1, est)
        assert pm.pm_id not in [h.pm_id for h in fast.hosts]
        assert_problems_equal(fast, ref)


class TestPackParity:
    @pytest.mark.parametrize("min_gain", [0.0, 0.001])
    def test_oracle(self, config, trace, min_gain):
        system = stepped_system(config, trace)
        est = OracleEstimator()
        round_ = SchedulingRound(system, trace, 1, est)
        fast = round_.best_fit(min_gain_eur=min_gain)
        ref = reference_best_fit(build_problem(system, trace, 1, est),
                                  min_gain_eur=min_gain)
        assert_results_equal(fast, ref)

    def test_observed_direct_sla_path(self, config, trace):
        system = stepped_system(config, trace)
        monitor = Monitor(rng=np.random.default_rng(3))
        monitor.observe(system.step(trace, 1))
        est = ObservedEstimator(monitor=monitor, overbook=2.0)
        est.refresh()
        fast = SchedulingRound(system, trace, 2, est).best_fit()
        ref = reference_best_fit(build_problem(system, trace, 2, est))
        assert_results_equal(fast, ref)

    def test_non_unit_weights(self, config, trace):
        system = stepped_system(config, trace)
        est = OracleEstimator()
        weights = ObjectiveWeights(revenue=1.0, energy=2.5, migration=0.5)
        fast = SchedulingRound(system, trace, 1, est,
                               weights=weights).best_fit()
        ref = reference_best_fit(
            build_problem(system, trace, 1, est, weights=weights))
        assert_results_equal(fast, ref)

    def test_pack_accepts_externally_built_problem(self, config, trace):
        """pack() on a problem whose requests the round did not build."""
        system = stepped_system(config, trace)
        est = OracleEstimator()
        round_ = SchedulingRound(system, trace, 1, est)
        external = build_problem(system, trace, 1, est)
        fast = round_.pack(external)
        ref = reference_best_fit(build_problem(system, trace, 1, est))
        assert_results_equal(fast, ref)

    def test_ml_estimator(self, config, trace):
        from repro.experiments.training import train_paper_models
        models, _ = train_paper_models(
            lambda: multidc_system(config), trace, scales=(1.0,), seed=7)
        from repro.core.estimators import MLEstimator
        est = MLEstimator(models=models)
        system = stepped_system(config, trace)
        fast = SchedulingRound(system, trace, 1, est).best_fit()
        ref = reference_best_fit(build_problem(system, trace, 1, est))
        assert_results_equal(fast, ref)


    def test_synthetic_fleet_round(self):
        """The flat round ``scaling`` times, on a small synthetic fleet
        with multi-tenant hosts over all four tariffs."""
        system, trace = synthetic_fleet_system(n_hosts=12, n_vms=30,
                                               n_intervals=4)
        system.step(trace, 0)
        est = OracleEstimator()
        fast = SchedulingRound(system, trace, 1, est).best_fit(
            min_gain_eur=0.0005)
        ref = reference_best_fit(build_problem(system, trace, 1, est),
                                 min_gain_eur=0.0005)
        assert_results_equal(fast, ref)


def reference_scheduler(estimator, forecaster=None):
    """``make_bestfit_scheduler`` built from the oracle's builder and
    scalar packing loop."""

    def schedule(system, trace, t):
        loads_override = None
        if forecaster is not None:
            from repro.workload.forecast import forecast_loads
            while forecaster.n_observed < t:
                forecaster.observe_interval(trace, forecaster.n_observed)
            loads_override = forecast_loads(forecaster, trace,
                                            vm_ids=sorted(system.vms))
        problem = build_problem(system, trace, t, estimator,
                                loads_override=loads_override)
        if not problem.requests:
            return {}
        return reference_best_fit(problem).assignment

    return schedule


class TestScopedPackParity:
    """Sub-scopes of one round pack like the oracle on the same scope."""

    def test_per_dc_packs(self, config, trace):
        system = stepped_system(config, trace)
        est = OracleEstimator()
        round_ = SchedulingRound(system, trace, 1, est)
        for dc in system.datacenters:
            scope_vms = sorted(dc.vm_ids)
            scope_pms = [pm.pm_id for pm in dc.pms]
            assert_results_equal(
                round_.best_fit(scope_vms, scope_pms),
                reference_best_fit(build_problem(
                    system, trace, 1, est, scope_vms=scope_vms,
                    scope_pms=scope_pms)))

    def test_cross_dc_candidate_set(self, config, trace):
        """The global-round shape: VMs from many DCs, a narrow PM set."""
        system = stepped_system(config, trace)
        est = OracleEstimator()
        scope_vms = sorted(system.vms)[::2]
        scope_pms = [dc.pms[0].pm_id for dc in system.datacenters]
        assert_results_equal(
            SchedulingRound(system, trace, 1, est).best_fit(
                scope_vms, scope_pms, min_gain_eur=0.0005),
            reference_best_fit(
                build_problem(system, trace, 1, est, scope_vms=scope_vms,
                              scope_pms=scope_pms),
                min_gain_eur=0.0005))

    def test_failed_pm_inside_scope(self, config, trace):
        system = stepped_system(config, trace)
        est = OracleEstimator()
        dc = system.datacenters[1]
        dc.pms[0].fail()
        scope_vms = sorted(dc.vm_ids)
        scope_pms = [pm.pm_id for pm in dc.pms]
        round_ = SchedulingRound(system, trace, 1, est)
        problem = round_.problem(scope_vms, scope_pms)
        assert dc.pms[0].pm_id not in [h.pm_id for h in problem.hosts]
        assert_results_equal(
            round_.best_fit(scope_vms, scope_pms),
            reference_best_fit(build_problem(
                system, trace, 1, est, scope_vms=scope_vms,
                scope_pms=scope_pms)))

    def test_estimator_without_batch_interface_is_rejected(self, config,
                                                           trace):
        """The batch interface is mandatory: a scalar-only duck type
        fails loudly instead of packing through a slower path."""

        class ScalarOnlyEstimator:
            def __init__(self):
                self._oracle = OracleEstimator()

            def required_resources(self, vm, load, cpu_cap):
                return self._oracle.required_resources(vm, load, cpu_cap)

            def pm_cpu(self, vm_cpus):
                return self._oracle.pm_cpu(vm_cpus)

        system = stepped_system(config, trace)
        with pytest.raises(AttributeError, match="_batch"):
            SchedulingRound(system, trace, 1,
                            ScalarOnlyEstimator()).best_fit()


class TestSchedulerParity:
    def test_hierarchical_rounds_identical(self, config, trace):
        fast_sys = stepped_system(config, trace)
        ref_sys = stepped_system(config, trace)
        fast = HierarchicalScheduler(estimator=OracleEstimator(),
                                     sla_move_threshold=0.95)
        ref = HierarchicalScheduler(estimator=OracleEstimator(),
                                    sla_move_threshold=0.95)
        for t in range(1, 6):
            a = fast(fast_sys, trace, t)
            with oracle_rounds():
                b = ref(ref_sys, trace, t)
            assert a == b
            assert (fast.last_round.movable_vms
                    == ref.last_round.movable_vms)
            assert (fast.last_round.offered_hosts
                    == ref.last_round.offered_hosts)
            fast_sys.apply_schedule(a)
            ref_sys.apply_schedule(b)
            fast_sys.step(trace, t)
            ref_sys.step(trace, t)

    def test_hierarchical_observed_estimator(self, config, trace):
        """The direct-SLA path through both layers, estimator refreshed
        from its own monitor every round."""
        def run(reference):
            system = stepped_system(config, trace)
            monitor = Monitor(rng=np.random.default_rng(3))
            scheduler = HierarchicalScheduler(
                estimator=ObservedEstimator(monitor=monitor, overbook=1.5),
                sla_move_threshold=0.95)
            assignments = []
            for t in range(1, 5):
                monitor.observe(system.step(trace, t - 1))
                if reference:
                    with oracle_rounds():
                        assignment = scheduler(system, trace, t)
                else:
                    assignment = scheduler(system, trace, t)
                assignments.append(assignment)
                system.apply_schedule(assignment)
            return assignments

        assert run(reference=False) == run(reference=True)

    def test_hierarchical_fleet_scenario_small(self):
        """A small many-DC fleet with failures on, run end to end on
        both round paths: the same placements every interval and reports
        within 1e-9."""
        def run():
            system, trace = synthetic_hierarchical_fleet(
                n_dcs=3, pms_per_dc=3, n_vms=24, n_intervals=4,
                sources_per_vm=2)
            scheduler = HierarchicalScheduler(estimator=OracleEstimator(),
                                              sla_move_threshold=0.9)
            injector = FailureInjector(rng=np.random.default_rng(12),
                                       fail_prob_per_interval=0.3,
                                       repair_intervals=3, max_down=2)
            history = run_simulation(system, trace, scheduler=scheduler,
                                     failure_injector=injector)
            return history, injector

        fast_hist, fast_inj = run()
        with oracle_rounds():
            ref_hist, ref_inj = run()
        assert fast_inj.events and fast_inj.events == ref_inj.events
        assert ([r.placement for r in fast_hist.reports]
                == [r.placement for r in ref_hist.reports])
        worst = max(report_max_abs_diff(a, b) for a, b in
                    zip(fast_hist.reports, ref_hist.reports))
        assert worst < 1e-9
        assert 0.0 < fast_hist.summary().avg_sla <= 1.0

    def test_flat_scheduler_end_to_end(self, config, trace):
        fast_hist = run_simulation(
            multidc_system(config), trace,
            scheduler=make_bestfit_scheduler(OracleEstimator()))
        ref_hist = run_simulation(
            multidc_system(config), trace,
            scheduler=reference_scheduler(OracleEstimator()))
        assert len(fast_hist) == len(ref_hist)
        worst = max(report_max_abs_diff(a, b) for a, b in
                    zip(fast_hist.reports, ref_hist.reports))
        assert worst < 1e-9

    def test_forecaster_override_parity(self, config, trace):
        from repro.workload.forecast import LoadForecaster
        fast_hist = run_simulation(
            multidc_system(config), trace,
            scheduler=make_bestfit_scheduler(
                OracleEstimator(), forecaster=LoadForecaster(period=4)))
        ref_hist = run_simulation(
            multidc_system(config), trace,
            scheduler=reference_scheduler(
                OracleEstimator(), forecaster=LoadForecaster(period=4)))
        worst = max(report_max_abs_diff(a, b) for a, b in
                    zip(fast_hist.reports, ref_hist.reports))
        assert worst < 1e-9


class TestProblemParityAtScale:
    def test_8dc_fleet_with_failures(self):
        """Every problem scope of a few hierarchical rounds on the 8-DC x
        3000-VM fleet, failures on: the round builds the same problems
        as the object-walking reference."""
        system, trace = synthetic_hierarchical_fleet(n_intervals=4)
        est = OracleEstimator()
        scheduler = HierarchicalScheduler(estimator=est,
                                          sla_move_threshold=0.9)
        injector = FailureInjector(rng=np.random.default_rng(12),
                                   fail_prob_per_interval=0.02,
                                   repair_intervals=3, max_down=2)
        rounds, failed_seen = [], 0

        def checked(system, trace, t):
            nonlocal failed_seen
            rounds.append(t)
            failed_seen += sum(pm.failed for pm in system.pms)
            round_ = SchedulingRound(system, trace, t, est)
            assert_problems_equal(round_.problem(),
                                  build_problem(system, trace, t, est))
            for dc in system.datacenters:
                scope_vms = sorted(dc.vm_ids)
                scope_pms = [pm.pm_id for pm in dc.pms]
                assert_problems_equal(
                    round_.problem(scope_vms, scope_pms),
                    build_problem(system, trace, t, est,
                                  scope_vms=scope_vms,
                                  scope_pms=scope_pms))
            return scheduler(system, trace, t)

        run_simulation(system, trace, scheduler=checked,
                       failure_injector=injector, stop=3)
        assert rounds == [0, 1, 2]
        assert failed_seen > 0
