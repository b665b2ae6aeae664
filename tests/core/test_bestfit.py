"""Tests for Ordered Descending Best-Fit (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bestfit import SchedulingRound, descending_best_fit
from repro.core.estimators import OracleEstimator
from repro.core.model import (HostView, ObjectiveWeights, SchedulingProblem,
                              VMRequest, check_schedule)
from repro.core.profit import PriceBook
from repro.core.sla import PAPER_SLA
from repro.sim.demand import LoadVector
from repro.sim.machines import PhysicalMachine, Resources, VirtualMachine
from repro.sim.network import paper_network_model


def make_host(pm_id, location="BCN", price=0.15):
    pm = PhysicalMachine(pm_id=pm_id)
    return HostView.of(pm, location, price)


def make_request(vm_id, rps=10.0, sources=("BCN",), current_pm=None,
                 current_location=None):
    vm = VirtualMachine(vm_id=vm_id)
    loads = {src: LoadVector(rps / len(sources), 4000.0, 0.05)
             for src in sources}
    return VMRequest(vm=vm, contract=PAPER_SLA, loads=loads,
                     current_pm=current_pm,
                     current_location=current_location)


def make_problem(requests, hosts, weights=None):
    return SchedulingProblem(requests=requests, hosts=hosts,
                             network=paper_network_model(),
                             prices=PriceBook(), estimator=OracleEstimator(),
                             interval_s=600.0,
                             weights=weights or ObjectiveWeights())


class TestAlgorithm:
    def test_every_vm_assigned_exactly_once(self):
        requests = [make_request(f"vm{i}", rps=5.0 + i) for i in range(4)]
        hosts = [make_host("h0"), make_host("h1")]
        result = descending_best_fit(make_problem(requests, hosts))
        assert set(result.assignment) == {r.vm_id for r in requests}
        # Constraint 1: one and only one host per VM.
        assert all(pm in ("h0", "h1") for pm in result.assignment.values())

    def test_demand_descending_order(self):
        requests = [make_request("small", rps=2.0),
                    make_request("big", rps=50.0),
                    make_request("mid", rps=10.0)]
        result = descending_best_fit(make_problem(
            requests, [make_host("h0")]))
        assert result.order == ["big", "mid", "small"]

    def test_consolidates_light_load(self):
        """Two light VMs share one host: the second avoids a power-on."""
        requests = [make_request("a", rps=3.0), make_request("b", rps=3.0)]
        hosts = [make_host("h0"), make_host("h1")]
        result = descending_best_fit(make_problem(requests, hosts))
        assert (result.assignment["a"] == result.assignment["b"])

    def test_deconsolidates_heavy_load(self):
        """Two heavy VMs spread out: contention would kill SLA revenue."""
        requests = [make_request("a", rps=60.0), make_request("b", rps=60.0)]
        hosts = [make_host("h0"), make_host("h1")]
        result = descending_best_fit(make_problem(requests, hosts))
        assert result.assignment["a"] != result.assignment["b"]

    def test_prefers_client_proximity(self):
        requests = [make_request("a", sources=("BST",))]
        hosts = [make_host("far", "BRS"), make_host("near", "BST")]
        result = descending_best_fit(make_problem(requests, hosts))
        assert result.assignment["a"] == "near"

    def test_stays_put_when_no_gain(self):
        """Identical hosts: the incumbent wins (migration hysteresis)."""
        requests = [make_request("a", current_pm="h0",
                                 current_location="BCN")]
        hosts = [make_host("h0"), make_host("h1")]
        result = descending_best_fit(make_problem(requests, hosts))
        assert result.assignment["a"] == "h0"

    def test_min_gain_blocks_marginal_moves(self):
        requests = [make_request("a", current_pm="h0",
                                 current_location="BCN",
                                 sources=("BCN", "BST"))]
        # h1 is in BST: slightly better latency mix, but gain is small.
        hosts = [make_host("h0", "BCN"), make_host("h1", "BST")]
        stay = descending_best_fit(make_problem(requests, hosts),
                                   min_gain_eur=10.0)
        assert stay.assignment["a"] == "h0"

    def test_cheap_energy_attracts_when_sla_equal(self):
        # No clients anywhere near; only energy differs.
        requests = [make_request("a", rps=3.0, sources=("BRS",))]
        hosts = [make_host("exp", "BNG", price=0.50),
                 make_host("chp", "BST", price=0.01)]
        # BNG and BST are almost equidistant from BRS (265 vs 255 ms).
        result = descending_best_fit(make_problem(requests, hosts))
        assert result.assignment["a"] == "chp"

    def test_no_hosts_rejected(self):
        with pytest.raises(ValueError, match="no candidate hosts"):
            descending_best_fit(make_problem([make_request("a")], []))

    def test_total_profit_matches_evaluations(self):
        requests = [make_request(f"vm{i}") for i in range(3)]
        result = descending_best_fit(make_problem(
            requests, [make_host("h0"), make_host("h1")]))
        assert result.total_profit == pytest.approx(
            sum(ev.profit_eur for ev in result.evaluations.values()))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_never_violates_constraints(self, seed):
        rng = np.random.default_rng(seed)
        n_vms = int(rng.integers(1, 6))
        n_hosts = int(rng.integers(1, 4))
        requests = [make_request(f"vm{i}", rps=float(rng.uniform(1, 40)),
                                 sources=("BCN", "BST"))
                    for i in range(n_vms)]
        hosts = [make_host(f"h{j}", ["BCN", "BST", "BNG"][j % 3])
                 for j in range(n_hosts)]
        problem = make_problem(requests, hosts)
        result = descending_best_fit(problem)
        violations = check_schedule(problem, result.assignment)
        hard = [v for v in violations if v.kind in ("unassigned",
                                                    "unknown-host")]
        assert hard == []


class TestBuildProblem:
    def test_snapshot_matches_system(self, tiny_system, tiny_trace):
        problem = SchedulingRound(tiny_system, tiny_trace, 0,
                                  OracleEstimator()).problem()
        assert len(problem.requests) == 5
        assert len(problem.hosts) == 4
        for request in problem.requests:
            assert request.current_pm is not None

    def test_scope_vms(self, tiny_system, tiny_trace):
        problem = SchedulingRound(tiny_system, tiny_trace, 0,
                                  OracleEstimator()).problem(
                                      scope_vms=["vm0"])
        assert [r.vm_id for r in problem.requests] == ["vm0"]
        # Other VMs stay committed on their hosts.
        committed = {vm for h in problem.hosts for vm in h.committed}
        assert "vm1" in committed and "vm0" not in committed

    def test_scope_pms(self, tiny_system, tiny_trace):
        problem = SchedulingRound(tiny_system, tiny_trace, 0,
                                  OracleEstimator()).problem(
                                      scope_pms=["BCN-pm0", "BST-pm0"])
        assert {h.pm_id for h in problem.hosts} == {"BCN-pm0", "BST-pm0"}

    def test_queue_lens_forwarded(self, tiny_system, tiny_trace):
        problem = SchedulingRound(tiny_system, tiny_trace, 0,
                                  OracleEstimator(),
                                  queue_lens={"vm0": 42.0}).problem()
        request = next(r for r in problem.requests if r.vm_id == "vm0")
        assert request.queue_len == 42.0

    def test_auto_power_off_propagated(self, tiny_system, tiny_trace):
        tiny_system.auto_power_off = False
        problem = SchedulingRound(tiny_system, tiny_trace, 0,
                                  OracleEstimator()).problem()
        assert problem.auto_power_off is False
