"""Differential tests: the round scorer == the scalar reference.

`RoundScorer.evaluate` must agree with a loop of scalar `placement_profit`
calls within 1e-9 on every `BatchEvaluation` field, for every estimator
(oracle, observed, ML, ML with risk), across randomized problems covering
powered-off hosts, full hosts, zero-capacity hosts, migration cases,
zero-load VMs and non-unit weights — both on the fresh batch and after
each packing commit.  `RoundScorer.evaluate_released`, the warm-serving
query that releases a VM from its host column in place, must agree the
same way with `placement_profit` on host views that no longer hold the
VM, and must leave the batch as it found it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators import (MLEstimator, ObservedEstimator,
                                   OracleEstimator)
from repro.core.model import (HostBatch, HostView, ObjectiveWeights,
                              RoundScorer, SchedulingProblem, VMRequest,
                              placement_profit)
from repro.ml.calibration import RiskConfig
from repro.core.profit import PriceBook
from repro.core.sla import PAPER_SLA, SLAContract
from repro.sim.demand import LoadVector
from repro.sim.machines import Resources, VirtualMachine
from repro.sim.network import PAPER_LOCATIONS, paper_network_model
from repro.sim.power import atom_power_model, linear_power_model

TOL = 1e-9

FIELDS = ("profit_eur", "revenue_eur", "energy_cost_eur",
          "migration_penalty_eur", "sla", "used_cpu", "migration_seconds")

#: Non-unit weights: every term scaled, none dropped.
SKEWED = ObjectiveWeights(revenue=1.3, energy=2.5, migration=0.5)


def random_problem(rng, estimator, n_hosts=8, n_vms=10, weights=None,
                   auto_power_off=True):
    """A deliberately nasty random round.

    Mixes powered-off hosts, a (near-)full host with out-of-scope
    residents, a zero-capacity host, heterogeneous power curves and
    tariffs, VMs that stay / migrate / have no current host, multi-source
    and zero-rps loads, and nonzero gateway queues.
    """
    power_models = [atom_power_model(),
                    linear_power_model(8, 60.0, 180.0)]
    hosts = []
    for i in range(n_hosts):
        loc = PAPER_LOCATIONS[int(rng.integers(0, len(PAPER_LOCATIONS)))]
        if i == n_hosts - 1:
            capacity = Resources(cpu=0.0, mem=0.0, bw=0.0)
        else:
            capacity = Resources(cpu=float(rng.choice([200.0, 400.0, 800.0])),
                                 mem=float(rng.choice([2048.0, 4096.0])),
                                 bw=125_000.0)
        host = HostView(pm_id=f"pm{i}", location=loc, capacity=capacity,
                        power_model=power_models[i % len(power_models)],
                        energy_price_eur_kwh=float(rng.uniform(0.05, 0.2)),
                        initially_on=bool(rng.random() < 0.7))
        # Out-of-scope residents; host 0 gets overloaded past capacity.
        n_residents = 6 if i == 0 else int(rng.integers(0, 3))
        for k in range(n_residents):
            demand = Resources(cpu=float(rng.uniform(10.0, 150.0)),
                               mem=float(rng.uniform(100.0, 900.0)),
                               bw=float(rng.uniform(100.0, 4000.0)))
            host.commit(f"resident{i}_{k}", demand,
                        used_cpu=float(rng.uniform(5.0, demand.cpu)))
        hosts.append(host)
    requests = []
    for j in range(n_vms):
        n_sources = int(rng.integers(1, 4))
        sources = rng.choice(PAPER_LOCATIONS, size=n_sources, replace=False)
        loads = {}
        for s, src in enumerate(sources):
            rps = 0.0 if (j == 0 and s == 0) else float(rng.uniform(0.0, 30.0))
            loads[str(src)] = LoadVector(rps, float(rng.uniform(500.0, 8000.0)),
                                         float(rng.uniform(0.005, 0.06)))
        mode = j % 3
        current_pm = None
        current_location = None
        if mode == 1:  # stays a candidate -> intra/inter-DC migration cases
            k = int(rng.integers(0, n_hosts))
            current_pm = f"pm{k}"
            current_location = hosts[k].location
        elif mode == 2:  # current host not among candidates
            current_pm = "pm-gone"
            current_location = str(rng.choice(PAPER_LOCATIONS))
        requests.append(VMRequest(
            vm=VirtualMachine(vm_id=f"vm{j}",
                              image_size_mb=float(rng.uniform(1024, 8192))),
            contract=PAPER_SLA if j % 2 else SLAContract(rt0=0.2, alpha=5.0),
            loads=loads, current_pm=current_pm,
            current_location=current_location,
            queue_len=float(rng.uniform(0.0, 50.0)) if j % 4 == 0 else 0.0))
    return SchedulingProblem(
        requests=requests, hosts=hosts, network=paper_network_model(),
        prices=PriceBook(), estimator=estimator,
        weights=weights or ObjectiveWeights(),
        auto_power_off=auto_power_off)


def copy_view(h):
    return HostView(pm_id=h.pm_id, location=h.location,
                    capacity=h.capacity, power_model=h.power_model,
                    energy_price_eur_kwh=h.energy_price_eur_kwh,
                    initially_on=h.initially_on,
                    committed=dict(h.committed),
                    committed_used_cpu=dict(h.committed_used_cpu))


def assert_matches_scalar(evs, problem, request, views, req):
    """Every column of ``evs`` == scalar ``placement_profit`` on ``views``."""
    assert evs.pm_ids == tuple(h.pm_id for h in views)
    assert evs.required == req
    for i, host in enumerate(views):
        ev = placement_profit(problem, request, host, required=req)
        for name in FIELDS:
            got = float(getattr(evs, name)[i])
            want = getattr(ev, name)
            assert got == pytest.approx(want, abs=TOL), (
                f"{name} diverges for {request.vm_id} on {host.pm_id}: "
                f"scorer {got!r} vs scalar {want!r}")
        assert float(evs.given_cpu[i]) == pytest.approx(ev.given.cpu,
                                                        abs=TOL)
        assert float(evs.given_mem[i]) == pytest.approx(ev.given.mem,
                                                        abs=TOL)
        assert float(evs.given_bw[i]) == pytest.approx(ev.given.bw,
                                                       abs=TOL)
        assert evs.evaluation(i).fits == ev.fits


def assert_scorer_matches_scalar(problem):
    """Score every request, then commit it to its best host on both sides.

    The scalar side packs into copies of the host views; the scorer only
    updates its batch columns, so every later request also checks that
    :meth:`RoundScorer.commit` kept them in step with the views.
    """
    views = [copy_view(h) for h in problem.hosts]
    scorer = RoundScorer(problem, HostBatch(problem.hosts))
    est = problem.estimator
    for request in problem.requests:
        req = est.required_resources(request.vm, request.aggregate_load,
                                     float("inf"))
        evs = scorer.evaluate(request, req)
        assert_matches_scalar(evs, problem, request, views, req)
        i = int(np.argmax(evs.profit_eur))
        scorer.commit(i, request.vm_id, evs.required,
                      float(evs.used_cpu[i]))
        views[i].commit(request.vm_id, evs.required, float(evs.used_cpu[i]))


class TestDifferentialOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_problems(self, seed):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, OracleEstimator())
        assert_scorer_matches_scalar(problem)

    def test_auto_power_off_disabled(self):
        rng = np.random.default_rng(42)
        problem = random_problem(rng, OracleEstimator(),
                                 auto_power_off=False)
        assert_scorer_matches_scalar(problem)

    def test_degenerate_revenue_only_weights(self):
        """Follow-the-load mode: energy = migration = 0."""
        rng = np.random.default_rng(43)
        problem = random_problem(
            rng, OracleEstimator(),
            weights=ObjectiveWeights(revenue=1.0, energy=0.0,
                                     migration=0.0))
        assert_scorer_matches_scalar(problem)

    def test_non_unit_weights(self):
        rng = np.random.default_rng(44)
        problem = random_problem(rng, OracleEstimator(), weights=SKEWED)
        assert_scorer_matches_scalar(problem)


class TestDifferentialObserved:
    @pytest.mark.parametrize("seed,overbook", [(5, 1.0), (6, 2.0)])
    def test_random_problems(self, seed, overbook, tiny_monitor):
        est = ObservedEstimator(monitor=tiny_monitor, overbook=overbook)
        est.refresh()
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, est)
        assert_scorer_matches_scalar(problem)

    def test_unobserved_vms_fall_back_to_default(self, tiny_monitor):
        """Fresh (never-monitored) VMs take the default booking."""
        est = ObservedEstimator(monitor=tiny_monitor)
        rng = np.random.default_rng(7)
        problem = random_problem(rng, est)
        assert_scorer_matches_scalar(problem)

    def test_non_unit_weights(self, tiny_monitor):
        est = ObservedEstimator(monitor=tiny_monitor)
        est.refresh()
        rng = np.random.default_rng(45)
        problem = random_problem(rng, est, weights=SKEWED)
        assert_scorer_matches_scalar(problem)


class TestDifferentialML:
    @pytest.mark.parametrize("seed,sla_mode", [(8, "direct"), (9, "rt")])
    def test_random_problems(self, seed, sla_mode, tiny_models):
        est = MLEstimator(models=tiny_models, sla_mode=sla_mode)
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, est, n_hosts=6, n_vms=6)
        assert_scorer_matches_scalar(problem)

    @pytest.mark.parametrize("seed,sla_mode", [(14, "direct"), (15, "rt")])
    def test_with_risk(self, seed, sla_mode, tiny_models):
        """Conformal margins, demand head-room and the fit guard on."""
        est = MLEstimator(models=tiny_models, sla_mode=sla_mode,
                          risk=RiskConfig(coverage=0.9, spread_weight=2.0,
                                          demand_coverage=0.9))
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, est, n_hosts=6, n_vms=6)
        assert_scorer_matches_scalar(problem)

    def test_non_unit_weights(self, tiny_models):
        est = MLEstimator(models=tiny_models)
        rng = np.random.default_rng(16)
        problem = random_problem(rng, est, n_hosts=6, n_vms=6,
                                 weights=SKEWED)
        assert_scorer_matches_scalar(problem)


def placed_problem(rng, estimator, **kwargs):
    """``random_problem`` with every VM whose current host is a
    candidate committed there, as a live round's batch holds it."""
    problem = random_problem(rng, estimator, **kwargs)
    by_id = {h.pm_id: h for h in problem.hosts}
    for request in problem.requests:
        host = by_id.get(request.current_pm)
        if host is not None:
            req = estimator.required_resources(
                request.vm, request.aggregate_load, float("inf"))
            host.commit(request.vm_id, req, used_cpu=0.8 * req.cpu)
    return problem


def released_views(problem, vm_id):
    """Copies of the host views with ``vm_id`` released everywhere."""
    views = [copy_view(h) for h in problem.hosts]
    for view in views:
        view.committed.pop(vm_id, None)
        view.committed_used_cpu.pop(vm_id, None)
    return views


BATCH_COLUMNS = ("used_cpu", "used_mem", "used_bw", "committed_cpu_sum",
                 "committed_count")


def assert_released_matches_scalar(problem):
    """Every ``evaluate_released`` query == scalar on released views,
    and the shared batch is restored after each query."""
    batch = HostBatch(problem.hosts)
    scorer = RoundScorer(problem, batch)
    est = problem.estimator
    released = 0
    for request in problem.requests:
        req = est.required_resources(request.vm, request.aggregate_load,
                                     float("inf"))
        before = {name: getattr(batch, name).copy()
                  for name in BATCH_COLUMNS}
        hosts_before = list(batch.hosts)
        evs = scorer.evaluate_released(request, req)
        assert_matches_scalar(evs, problem, request,
                              released_views(problem, request.vm_id), req)
        for name in BATCH_COLUMNS:
            np.testing.assert_array_equal(getattr(batch, name),
                                          before[name])
        assert batch.hosts == hosts_before
        released += any(request.vm_id in h.committed
                        for h in problem.hosts)
    assert released, "no query released a placed VM"
    return scorer


class TestReleasedScoring:
    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_oracle(self, seed):
        rng = np.random.default_rng(seed)
        assert_released_matches_scalar(
            placed_problem(rng, OracleEstimator()))

    def test_observed(self, tiny_monitor):
        est = ObservedEstimator(monitor=tiny_monitor, overbook=2.0)
        est.refresh()
        rng = np.random.default_rng(23)
        assert_released_matches_scalar(placed_problem(rng, est))

    @pytest.mark.parametrize("sla_mode", ["direct", "rt"])
    def test_ml(self, sla_mode, tiny_models):
        est = MLEstimator(models=tiny_models, sla_mode=sla_mode)
        rng = np.random.default_rng(24)
        assert_released_matches_scalar(
            placed_problem(rng, est, n_hosts=6, n_vms=6))

    def test_ml_with_risk(self, tiny_models):
        est = MLEstimator(models=tiny_models,
                          risk=RiskConfig(coverage=0.9, spread_weight=2.0,
                                          demand_coverage=0.9))
        rng = np.random.default_rng(25)
        assert_released_matches_scalar(
            placed_problem(rng, est, n_hosts=6, n_vms=6))

    def test_non_unit_weights(self):
        rng = np.random.default_rng(26)
        assert_released_matches_scalar(
            placed_problem(rng, OracleEstimator(), weights=SKEWED))

    def test_auto_power_off_disabled(self):
        """A host emptied by the release keeps running: the one-column
        running mask must follow ``auto_power_off``."""
        rng = np.random.default_rng(27)
        assert_released_matches_scalar(
            placed_problem(rng, OracleEstimator(), auto_power_off=False))

    def test_scoring_after_release_matches_a_fresh_scorer(self):
        """Released queries leave no trace: a later plain ``evaluate``
        equals a scorer that never served one."""
        rng = np.random.default_rng(28)
        problem = placed_problem(rng, OracleEstimator())
        used = assert_released_matches_scalar(problem)
        fresh = RoundScorer(problem, HostBatch(problem.hosts))
        for request in problem.requests:
            req = problem.estimator.required_resources(
                request.vm, request.aggregate_load, float("inf"))
            a = used.evaluate(request, req)
            b = fresh.evaluate(request, req)
            for name in FIELDS:
                np.testing.assert_array_equal(getattr(a, name),
                                              getattr(b, name))


class TestBatchColumns:
    def test_commits_match_a_fresh_batch(self):
        """After scorer commits, the batch columns equal a batch rebuilt
        from host views holding the same commits."""
        rng = np.random.default_rng(13)
        problem = random_problem(rng, OracleEstimator())
        batch = HostBatch(problem.hosts)
        scorer = RoundScorer(problem, batch)
        views = [copy_view(h) for h in problem.hosts]
        for k, request in enumerate(problem.requests[:4]):
            req = problem.estimator.required_resources(
                request.vm, request.aggregate_load, float("inf"))
            scorer.commit(k % 3, request.vm_id, req, used_cpu=req.cpu)
            views[k % 3].commit(request.vm_id, req, used_cpu=req.cpu)
        fresh = HostBatch(views)
        for name in ("used_cpu", "used_mem", "used_bw",
                     "committed_cpu_sum", "committed_count"):
            np.testing.assert_array_equal(getattr(batch, name),
                                          getattr(fresh, name))

    def test_scoring_leaves_host_views_untouched(self):
        rng = np.random.default_rng(12)
        problem = random_problem(rng, OracleEstimator())
        before = [(h.pm_id, dict(h.committed)) for h in problem.hosts]
        assert_scorer_matches_scalar(problem)
        assert [(h.pm_id, dict(h.committed))
                for h in problem.hosts] == before


@settings(max_examples=30, deadline=None)
@given(rps=st.floats(0.0, 80.0),
       cpu_time=st.floats(0.001, 0.08),
       resident_cpu=st.floats(0.0, 500.0),
       initially_on=st.booleans(),
       migrating=st.booleans())
def test_property_single_pair(rps, cpu_time, resident_cpu, initially_on,
                              migrating):
    """Hypothesis: scalar == scorer over the raw parameter space."""
    host = HostView(pm_id="h0", location="BCN",
                    capacity=Resources(400.0, 4096.0, 125_000.0),
                    power_model=atom_power_model(),
                    energy_price_eur_kwh=0.12, initially_on=initially_on)
    if resident_cpu > 0.0:
        host.commit("resident", Resources(resident_cpu, 512.0, 1000.0),
                    used_cpu=resident_cpu)
    request = VMRequest(
        vm=VirtualMachine(vm_id="vm0"), contract=PAPER_SLA,
        loads={"BST": LoadVector(rps, 4000.0, cpu_time)},
        current_pm="elsewhere" if migrating else None,
        current_location="BRS" if migrating else None)
    problem = SchedulingProblem(
        requests=[request], hosts=[host], network=paper_network_model(),
        prices=PriceBook(), estimator=OracleEstimator())
    req = problem.estimator.required_resources(
        request.vm, request.aggregate_load, float("inf"))
    evs = RoundScorer(problem, HostBatch([host])).evaluate(request, req)
    assert_matches_scalar(evs, problem, request, [host], req)
