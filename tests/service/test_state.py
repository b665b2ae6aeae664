"""Warm server state: model registry, sessions, and offline parity.

The load-bearing contract: a warm session answers exactly what the
offline pipeline answers — ``place`` matches a fresh
``SchedulingRound.best_fit(scope_vms=[vm])`` bit-for-bit and ``step``
matches ``run_simulation`` interval-for-interval, on every report field.  The server adds
residency, never drift.
"""

import threading

import pytest

from repro.core.bestfit import SchedulingRound, make_bestfit_scheduler
from repro.core.estimators import OracleEstimator
from repro.experiments.engine import REGISTRY
from repro.service.state import (ModelRegistry, SessionStore,
                                 session_from_scenario)
from repro.sim.engine import run_simulation
from repro.sim.fleet import report_max_abs_diff

SCENARIO = "quickstart"
OVERRIDES = dict(n_intervals=8)


def offline_history(stop):
    """The offline run a served oracle session must reproduce."""
    spec = REGISTRY.spec(SCENARIO, **OVERRIDES)
    system, fleet_trace = spec.fleet.build()
    trace = spec.workload.build(fleet_trace)
    return run_simulation(
        system, trace,
        scheduler=make_bestfit_scheduler(OracleEstimator()), stop=stop)


def assert_same_reports(served, offline):
    """Every field of every interval report is equal, placement too."""
    assert len(served) == len(offline)
    for a, b in zip(served.reports, offline.reports):
        assert a.placement == b.placement
        assert report_max_abs_diff(a, b) == 0.0


@pytest.fixture
def registry():
    return ModelRegistry()


@pytest.fixture
def oracle_session(registry):
    return session_from_scenario("s1", SCENARIO, registry,
                                 estimator="oracle", **OVERRIDES)


class TestModelRegistry:
    def test_concurrent_get_or_train_trains_once(self, registry):
        spec = REGISTRY.spec(SCENARIO, **OVERRIDES)
        base_trace = spec.workload.build(None)
        results = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            results.append(registry.get_or_train(spec.training, spec,
                                                 base_trace))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert registry.trainings == 1
        assert len(registry) == 1
        first = results[0][0]
        assert all(models is first for models, _monitor in results)

    def test_seed_publishes_without_training(self, registry):
        spec = REGISTRY.spec(SCENARIO, **OVERRIDES)
        sentinel = object()
        registry.seed(spec.training, spec, sentinel)
        models, monitor = registry.get_or_train(spec.training, spec)
        assert models is sentinel and monitor is None
        assert registry.trainings == 0

    def test_distinct_overrides_get_distinct_keys(self, registry):
        spec_a = REGISTRY.spec(SCENARIO, n_intervals=8)
        spec_b = REGISTRY.spec(SCENARIO, n_intervals=9)
        assert registry.key_of(spec_a.training, spec_a) != \
            registry.key_of(spec_b.training, spec_b)


class TestSessionPlaceParity:
    def test_place_matches_offline_round(self, oracle_session):
        session = oracle_session
        offline = SchedulingRound(session.system, session.trace,
                                  session.t, OracleEstimator())
        vm_ids = sorted(session.system.vms)
        with session.lock:
            served = session.place(vm_ids)
        for vm_id in vm_ids:
            ref = offline.pack(offline.problem(scope_vms=[vm_id]))
            assert served[vm_id]["pm"] == ref.assignment.get(vm_id)
            ev = ref.evaluations.get(vm_id)
            if ev is not None:
                assert served[vm_id]["profit_eur"] == ev.profit_eur
                assert served[vm_id]["sla"] == ev.sla

    def test_place_is_pure(self, oracle_session):
        """Placement queries never move VMs or advance the clock."""
        session = oracle_session
        vm_ids = sorted(session.system.vms)
        before = session.system.placement()
        with session.lock:
            session.place(vm_ids)
        assert session.system.placement() == before
        assert session.t == 0
        assert session.n_place_queries == len(vm_ids)

    def test_unknown_vm_raises(self, oracle_session):
        with oracle_session.lock:
            with pytest.raises(KeyError, match="no-such-vm"):
                oracle_session.place(["no-such-vm"])


class TestSessionStep:
    def test_step_matches_run_simulation(self, registry):
        session = session_from_scenario("served", SCENARIO, registry,
                                        estimator="oracle", **OVERRIDES)
        reports = session.step(rounds=3)
        assert session.t == 3 and len(reports) == 3
        history = offline_history(stop=3)
        assert_same_reports(session.history, history)
        for served, ref in zip(reports, history.reports):
            assert served == {"t": ref.t, "mean_sla": ref.mean_sla,
                              "total_watts": ref.total_watts,
                              "pms_on": ref.n_pms_on,
                              "migrations": ref.n_migrations,
                              "profit_eur": ref.profit.profit_eur}

    def test_place_between_steps_matches_run_simulation(self, registry):
        """Queries warm the round each step then packs; the scenario has
        no tariffs, so the warm round prices like a fresh one."""
        session = session_from_scenario("served", SCENARIO, registry,
                                        estimator="oracle", **OVERRIDES)
        assert REGISTRY.spec(SCENARIO, **OVERRIDES).tariffs is None
        vm_ids = sorted(session.system.vms)
        for t in range(3):
            with session.lock:
                session.place(vm_ids[t::3])
            session.step()
        assert session.n_place_queries > 0
        assert_same_reports(session.history, offline_history(stop=3))

    def test_step_past_trace_end_plays_nothing(self, oracle_session):
        session = oracle_session
        n = session.trace.n_intervals
        session.step(rounds=n - 1)
        placement = session.system.placement()
        with pytest.raises(IndexError, match="exhausted"):
            session.step(rounds=2)
        assert session.t == n - 1
        assert len(session.history) == n - 1
        assert session.system.placement() == placement

    def test_step_invalidates_round(self, oracle_session):
        session = oracle_session
        with session.lock:
            round_before = session.current_round()
        session.step()
        with session.lock:
            assert session.current_round() is not round_before

    def test_exhausted_trace_raises(self, oracle_session):
        session = oracle_session
        session.step(rounds=session.trace.n_intervals)
        with pytest.raises(IndexError, match="exhausted"):
            session.step()
        with session.lock:
            with pytest.raises(IndexError, match="exhausted"):
                session.current_round()

    def test_report_shape(self, oracle_session):
        session = oracle_session
        session.step(rounds=2)
        report = session.report()
        assert report["t"] == 2
        assert report["n_vms"] == len(session.system.vms)
        assert report["summary"]["avg_sla"] > 0.0


class TestSessionStore:
    def test_create_get_remove(self, registry):
        store = SessionStore()
        store.create("a", SCENARIO, registry, estimator="oracle",
                     **OVERRIDES)
        assert store.names() == ["a"]
        assert store.get("a").name == "a"
        with pytest.raises(ValueError, match="already exists"):
            store.create("a", SCENARIO, registry, estimator="oracle",
                         **OVERRIDES)
        with pytest.raises(KeyError, match="unknown session"):
            store.get("missing")
        store.remove("a")
        assert store.names() == []

    def test_ml_without_training_spec_rejected(self, registry):
        with pytest.raises(ValueError, match="estimator"):
            session_from_scenario("x", SCENARIO, registry,
                                  estimator="bogus", **OVERRIDES)
