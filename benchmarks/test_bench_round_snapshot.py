"""Bench the round-snapshot scheduling layer — end-to-end schedule+step.

Every hierarchical round snapshots the system once
(``repro.core.bestfit.SchedulingRound``) and packs each intra-DC and
global problem with ``repro.core.model.RoundScorer``.  This bench times
the full engine loop — failure injection, a scheduling round every
interval, then stepping — on the 8-DC, 3000-VM fleet.  That the round
builds the same problems as the object-walking reference on this fleet
is checked by ``tests/core/test_round_snapshot.py``.
"""

import numpy as np
import pytest

from repro.core.estimators import OracleEstimator
from repro.core.hierarchical import HierarchicalScheduler
from repro.experiments.scaling import synthetic_hierarchical_fleet
from repro.sim.engine import run_simulation
from repro.sim.failures import FailureInjector


def run_fleet():
    system, trace = synthetic_hierarchical_fleet()
    scheduler = HierarchicalScheduler(estimator=OracleEstimator(),
                                      sla_move_threshold=0.9)
    injector = FailureInjector(rng=np.random.default_rng(12),
                               fail_prob_per_interval=0.02,
                               repair_intervals=3, max_down=2)
    history = run_simulation(system, trace, scheduler=scheduler,
                             failure_injector=injector)
    return system, injector, history


@pytest.fixture(scope="module")
def result():
    return run_fleet()


def test_bench_round_snapshot(benchmark):
    benchmark.pedantic(run_fleet, rounds=1, iterations=1)


class TestShape:
    def test_scenario_is_large_with_failures(self, result):
        system, injector, history = result
        assert len(system.datacenters) >= 8
        assert len(system.vms) >= 1000
        assert len(system.pms) >= 256
        assert injector.events

    def test_run_produced_real_physics(self, result):
        _system, _injector, history = result
        summary = history.summary()
        assert 0.0 < summary.avg_sla <= 1.0
        assert summary.profit_eur != 0.0
        assert summary.n_migrations > 0
