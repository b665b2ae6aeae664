"""Golden regression tests for the vectorized Best-Fit refactor.

Three seeded scenarios (BF, BF-OB, BF-ML) pin down `descending_best_fit`'s
assignments and total profit two ways:

* **batch vs scalar** — the vectorized path must reproduce the scalar
  reference loop of ``bestfit_oracle`` exactly (the pre-refactor code
  verbatim, so this proves the refactor changes nothing);
* **frozen goldens** — assignments and profit recorded from the scalar
  path, so *any* future change to the objective or the packing order is
  caught even if it breaks both paths identically.

Failures report the first divergent VM, in packing order, with both hosts
and profits — not just a dict mismatch.
"""

import pytest

from bestfit_oracle import build_problem, reference_best_fit
from repro.core.bestfit import SchedulingRound, descending_best_fit
from repro.core.estimators import MLEstimator, ObservedEstimator
from repro.experiments.scenario import multidc_system

GOLDEN = {
    "BF": ({"vm3": "BST-pm0", "vm4": "BRS-pm0", "vm2": "BCN-pm0",
            "vm1": "BCN-pm0", "vm0": "BST-pm0"}, 0.1172158546806524),
    "BF-OB": ({"vm3": "BST-pm0", "vm4": "BRS-pm0", "vm2": "BCN-pm0",
               "vm1": "BNG-pm0", "vm0": "BST-pm0"}, 0.10701408239757745),
    "BF-ML": ({"vm3": "BST-pm0", "vm4": "BST-pm0", "vm2": "BCN-pm0",
               "vm1": "BCN-pm0", "vm0": "BCN-pm0"}, 0.11616800484498285),
}

GOLDEN_ORDER = ["vm3", "vm4", "vm2", "vm1", "vm0"]


def scenario_system(tiny_config, tiny_trace, estimator):
    """The tiny seeded scenario after one warm-up step (for demands)."""
    system = multidc_system(tiny_config)
    system.step(tiny_trace, 0)
    if isinstance(estimator, ObservedEstimator):
        estimator.refresh()
    return system


def scenario_problem(tiny_config, tiny_trace, estimator):
    """Round 1 of the tiny seeded scenario, built by the reference."""
    system = scenario_system(tiny_config, tiny_trace, estimator)
    return build_problem(system, tiny_trace, 1, estimator)


def make_estimator(variant, tiny_monitor, tiny_models):
    if variant == "BF":
        return ObservedEstimator(monitor=tiny_monitor)
    if variant == "BF-OB":
        return ObservedEstimator(monitor=tiny_monitor, overbook=2.0)
    return MLEstimator(models=tiny_models)


def first_divergence(order, a, b):
    """(vm_id, a_host, b_host) of the first divergent VM in packing order."""
    for vm_id in order:
        if a.assignment.get(vm_id) != b.assignment.get(vm_id):
            return vm_id, a.assignment.get(vm_id), b.assignment.get(vm_id)
    return None


def assert_results_identical(batch, scalar):
    assert batch.order == scalar.order, (
        f"packing order diverged: batch {batch.order} "
        f"vs scalar {scalar.order}")
    div = first_divergence(scalar.order, batch, scalar)
    if div is not None:
        vm_id, got, want = div
        got_profit = batch.evaluations[vm_id].profit_eur
        want_profit = scalar.evaluations[vm_id].profit_eur
        pytest.fail(
            f"first divergent VM {vm_id!r}: batch placed it on {got!r} "
            f"(profit {got_profit:.9f} EUR), scalar on {want!r} "
            f"(profit {want_profit:.9f} EUR)")
    assert batch.total_profit == pytest.approx(scalar.total_profit,
                                               abs=1e-9)


@pytest.mark.parametrize("variant", ["BF", "BF-OB", "BF-ML"])
class TestVectorizationChangesNothing:
    def test_batch_equals_scalar(self, variant, tiny_config, tiny_trace,
                                 tiny_monitor, tiny_models):
        est = make_estimator(variant, tiny_monitor, tiny_models)
        problem = scenario_problem(tiny_config, tiny_trace, est)
        batch = descending_best_fit(problem)
        scalar = reference_best_fit(problem)
        assert_results_identical(batch, scalar)

    def test_matches_frozen_golden(self, variant, tiny_config, tiny_trace,
                                   tiny_monitor, tiny_models):
        est = make_estimator(variant, tiny_monitor, tiny_models)
        system = scenario_system(tiny_config, tiny_trace, est)
        result = SchedulingRound(system, tiny_trace, 1, est).best_fit()
        golden_assignment, golden_profit = GOLDEN[variant]
        assert result.order == GOLDEN_ORDER
        for vm_id in GOLDEN_ORDER:
            got = result.assignment[vm_id]
            want = golden_assignment[vm_id]
            assert got == want, (
                f"{variant}: first divergent VM {vm_id!r} placed on "
                f"{got!r}, golden says {want!r} (profit there: "
                f"{result.evaluations[vm_id].profit_eur:.9f} EUR)")
        assert result.total_profit == pytest.approx(golden_profit,
                                                    rel=1e-9)


class TestWithHysteresis:
    """min_gain_eur interacts with the argmax shortcut; pin equivalence."""

    # Negative min_gain must not lower the bar below staying put (the
    # scalar loop's running best starts at the baseline).
    @pytest.mark.parametrize("min_gain", [-0.001, 0.0, 1e-6, 0.01])
    def test_batch_equals_scalar_with_min_gain(self, min_gain, tiny_config,
                                               tiny_trace, tiny_monitor):
        est = ObservedEstimator(monitor=tiny_monitor)
        problem = scenario_problem(tiny_config, tiny_trace, est)
        batch = descending_best_fit(problem, min_gain_eur=min_gain)
        scalar = reference_best_fit(problem, min_gain_eur=min_gain)
        assert_results_identical(batch, scalar)
