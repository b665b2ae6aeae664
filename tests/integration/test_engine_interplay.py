"""Engine interplay tests: tariffs, failures, schedulers and monitors
interacting in one loop, plus the loads_override scheduling path."""

import numpy as np
import pytest

from repro.core.bestfit import SchedulingRound
from repro.core.estimators import OracleEstimator
from repro.core.policies import oracle_scheduler
from repro.sim.demand import LoadVector
from repro.sim.engine import run_simulation
from repro.sim.failures import FailureInjector
from repro.sim.monitor import Monitor
from repro.sim.tariffs import TariffSchedule
from repro.experiments.scenario import multidc_system


class TestOrdering:
    def test_tariffs_visible_to_scheduler(self, tiny_config, tiny_trace):
        """The price the scheduler sees at round t is interval t's price."""
        seen = []

        def spy(system, trace, t):
            seen.append((t, system.dc("BCN").energy_price_eur_kwh))
            return None

        system = multidc_system(tiny_config)
        n = tiny_config.n_intervals
        system.tariff_schedule = TariffSchedule(
            prices={"BCN": np.linspace(0.1, 0.2, n)})
        run_simulation(system, tiny_trace, scheduler=spy)
        for t, price in seen:
            assert price == pytest.approx(0.1 + (0.2 - 0.1) * t / (n - 1))

    def test_failures_precede_scheduler(self, tiny_config, tiny_trace):
        """A round-0 failure is already visible to the round-0 scheduler."""
        injector = FailureInjector(rng=np.random.default_rng(0),
                                   fail_prob_per_interval=1.0,
                                   repair_intervals=100, max_down=1)
        observed = []

        def spy(system, trace, t):
            observed.append([pm.pm_id for pm in system.pms if pm.failed])
            return None

        run_simulation(multidc_system(tiny_config), tiny_trace,
                       scheduler=spy, failure_injector=injector, stop=2)
        assert observed[0]  # failure visible in the very first round

    def test_monitor_sees_post_schedule_state(self, tiny_config,
                                              tiny_trace):
        """Samples of interval t reflect the placement chosen at round t."""
        monitor = Monitor(rng=np.random.default_rng(0),
                          noise_cpu=0.0, noise_mem=0.0, noise_net=0.0,
                          noise_rt=0.0, noise_sla=0.0, rt_outlier_prob=0.0)

        def consolidate_all(system, trace, t):
            return {vm: "BST-pm0" for vm in system.vms}

        system = multidc_system(tiny_config)
        run_simulation(system, tiny_trace, scheduler=consolidate_all,
                       monitor=monitor, stop=1)
        # All five VMs observed on one host: shared grants.
        assert len(monitor.pm_samples) == 1
        assert monitor.pm_samples[0].n_vms == 5


class TestLoadsOverride:
    def test_override_changes_requests(self, tiny_system, tiny_trace):
        tiny_system.step(tiny_trace, 0)
        fake = {vm: {"BCN": LoadVector(99.0, 1000.0, 0.05)}
                for vm in tiny_system.vms}
        problem = SchedulingRound(tiny_system, tiny_trace, 1,
                                  OracleEstimator(),
                                  loads_override=fake).problem()
        for request in problem.requests:
            assert request.aggregate_load.rps == 99.0

    def test_partial_override(self, tiny_system, tiny_trace):
        fake = {"vm0": {"BCN": LoadVector(99.0, 1000.0, 0.05)}}
        problem = SchedulingRound(tiny_system, tiny_trace, 0,
                                  OracleEstimator(),
                                  loads_override=fake).problem()
        by_id = {r.vm_id: r for r in problem.requests}
        assert by_id["vm0"].aggregate_load.rps == 99.0
        assert by_id["vm1"].aggregate_load.rps != 99.0


class TestCombinedStress:
    def test_everything_at_once_stays_consistent(self, tiny_config,
                                                 tiny_trace):
        from repro.sim.validation import assert_system_invariants
        system = multidc_system(tiny_config)
        n = tiny_config.n_intervals
        rng = np.random.default_rng(8)
        system.tariff_schedule = TariffSchedule(
            prices={loc: rng.uniform(0.05, 0.3, n)
                    for loc in tiny_config.locations})
        injector = FailureInjector(rng=np.random.default_rng(9),
                                   fail_prob_per_interval=0.1,
                                   repair_intervals=2, max_down=2)
        monitor = Monitor(rng=np.random.default_rng(10))
        history = run_simulation(system, tiny_trace,
                                 scheduler=oracle_scheduler(),
                                 monitor=monitor,
                                 failure_injector=injector,
                                 schedule_every=2)
        assert len(history) == n
        assert_system_invariants(system)
        # Monitoring kept flowing despite the churn.
        assert len(monitor.vm_samples) > 0
