"""Edge-case coverage for `evaluate_schedule` / `check_schedule`.

Empty rounds, assignments pointing at unknown hosts, zero-capacity hosts
and degenerate (revenue-only) objective weights — the corners a scheduler
refactor is most likely to knock loose.
"""

import pytest

from repro.core.bestfit import descending_best_fit
from repro.core.estimators import OracleEstimator
from repro.core.model import (HostBatch, HostView, ObjectiveWeights,
                              RoundScorer, SchedulingProblem, VMRequest,
                              check_schedule, evaluate_schedule,
                              placement_profit)
from repro.core.profit import PriceBook
from repro.core.sla import PAPER_SLA
from repro.sim.demand import LoadVector
from repro.sim.machines import Resources, VirtualMachine
from repro.sim.network import paper_network_model
from repro.sim.power import atom_power_model


def make_host(pm_id, location="BCN", capacity=None, initially_on=True):
    return HostView(pm_id=pm_id, location=location,
                    capacity=capacity or Resources(400.0, 4096.0, 125_000.0),
                    power_model=atom_power_model(),
                    energy_price_eur_kwh=0.12, initially_on=initially_on)


def make_request(vm_id, rps=10.0, source="BCN"):
    return VMRequest(vm=VirtualMachine(vm_id=vm_id), contract=PAPER_SLA,
                     loads={source: LoadVector(rps, 4000.0, 0.02)})


def make_problem(requests, hosts, weights=None):
    return SchedulingProblem(requests=requests, hosts=hosts,
                             network=paper_network_model(),
                             prices=PriceBook(),
                             estimator=OracleEstimator(),
                             weights=weights or ObjectiveWeights())


class TestEmptySchedule:
    def test_evaluate_empty_schedule_is_zero(self):
        problem = make_problem([], [make_host("h0")])
        assert evaluate_schedule(problem, {}) == 0.0

    def test_check_empty_schedule_is_clean(self):
        problem = make_problem([], [make_host("h0")])
        assert check_schedule(problem, {}) == []

    def test_check_ignores_stray_assignment_entries(self):
        """Extra entries for VMs outside the round are not violations."""
        problem = make_problem([], [make_host("h0")])
        assert check_schedule(problem, {"ghost": "h0"}) == []


class TestUnknownHost:
    def test_evaluate_raises_on_unknown_host(self):
        problem = make_problem([make_request("vm0")], [make_host("h0")])
        with pytest.raises(KeyError):
            evaluate_schedule(problem, {"vm0": "nope"})

    def test_evaluate_raises_on_missing_assignment(self):
        problem = make_problem([make_request("vm0")], [make_host("h0")])
        with pytest.raises(ValueError, match="unassigned"):
            evaluate_schedule(problem, {})

    def test_check_flags_unknown_host(self):
        problem = make_problem([make_request("vm0")], [make_host("h0")])
        violations = check_schedule(problem, {"vm0": "nope"})
        assert [v.kind for v in violations] == ["unknown-host"]
        assert "vm0" in violations[0].detail

    def test_check_flags_unassigned_vm(self):
        problem = make_problem([make_request("vm0")], [make_host("h0")])
        violations = check_schedule(problem, {})
        assert [v.kind for v in violations] == ["unassigned"]


class TestZeroCapacityHost:
    def test_grants_nothing_and_scores_finite(self):
        host = make_host("dead", capacity=Resources(0.0, 0.0, 0.0))
        request = make_request("vm0")
        problem = make_problem([request], [host])
        ev = placement_profit(problem, request, host)
        assert ev.given == Resources(0.0, 0.0, 0.0)
        assert not ev.fits
        assert ev.sla == 0.0  # starved VM: RT blows past the contract
        # The round scorer survives the zero denominators too.
        scorer = RoundScorer(problem, HostBatch([host]))
        evs = scorer.evaluate(request, ev.required)
        assert float(evs.given_cpu[0]) == 0.0
        for name in ("profit_eur", "revenue_eur", "energy_cost_eur",
                     "migration_penalty_eur", "sla", "used_cpu",
                     "migration_seconds"):
            assert float(getattr(evs, name)[0]) == pytest.approx(
                getattr(ev, name), abs=1e-9)

    def test_check_flags_overcommit_on_zero_capacity(self):
        host = make_host("dead", capacity=Resources(0.0, 0.0, 0.0))
        problem = make_problem([make_request("vm0")], [host])
        violations = check_schedule(problem, {"vm0": "dead"})
        assert [v.kind for v in violations] == ["overcommit"]
        assert "dead" in violations[0].detail

    def test_best_fit_avoids_zero_capacity_host(self):
        hosts = [make_host("dead", capacity=Resources(0.0, 0.0, 0.0)),
                 make_host("alive")]
        problem = make_problem([make_request("vm0")], hosts)
        result = descending_best_fit(problem)
        assert result.assignment["vm0"] == "alive"


class TestDegenerateWeights:
    """Revenue-only weights: the paper's follow-the-load sanity mode."""

    def test_profit_equals_revenue(self):
        weights = ObjectiveWeights(revenue=1.0, energy=0.0, migration=0.0)
        host = make_host("h0")
        request = make_request("vm0")
        problem = make_problem([request], [host], weights=weights)
        ev = placement_profit(problem, request, host)
        assert ev.profit_eur == pytest.approx(ev.revenue_eur)
        assert evaluate_schedule(problem, {"vm0": "h0"}) == pytest.approx(
            ev.revenue_eur)

    def test_follow_the_load_prefers_proximity_over_energy(self):
        """With energy free, the client-local DC wins even at a high
        tariff."""
        weights = ObjectiveWeights(revenue=1.0, energy=0.0, migration=0.0)
        near = make_host("near", location="BST")
        near.energy_price_eur_kwh = 10.0  # absurd tariff, ignored
        far = make_host("far", location="BRS")
        problem = make_problem([make_request("vm0", source="BST")],
                               [far, near], weights=weights)
        result = descending_best_fit(problem)
        assert result.assignment["vm0"] == "near"

    def test_zero_weights_everywhere_scores_zero(self):
        weights = ObjectiveWeights(revenue=0.0, energy=0.0, migration=0.0)
        problem = make_problem([make_request("vm0")], [make_host("h0")],
                               weights=weights)
        assert evaluate_schedule(problem, {"vm0": "h0"}) == 0.0
