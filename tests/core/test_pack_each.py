"""`SchedulingRound.pack_each` — the warm per-VM placement entry point.

Differential contract: for every VM, ``pack_each`` must return exactly
what the per-problem reference path returns —
``round.pack(round.problem(scope_vms=[vm]))`` — while sharing one
nothing-released scorer across the whole query set.  Bit-identical, not
approximately: the service layer's concurrency tests build on this.
"""

import numpy as np
import pytest

from repro.core.bestfit import SchedulingRound
from repro.core.estimators import MLEstimator, OracleEstimator
from repro.experiments.scenario import multidc_system

EV_FIELDS = ("profit_eur", "revenue_eur", "energy_cost_eur",
             "migration_penalty_eur", "sla", "migration_seconds",
             "used_cpu")


def assert_results_equal(ref, got, context=""):
    assert ref.assignment == got.assignment, context
    assert ref.order == got.order, context
    assert set(ref.evaluations) == set(got.evaluations), context
    for vm_id in ref.evaluations:
        a, b = ref.evaluations[vm_id], got.evaluations[vm_id]
        for fld in EV_FIELDS:
            av, bv = getattr(a, fld), getattr(b, fld)
            assert av == bv, f"{context} {vm_id}.{fld}: {av!r} != {bv!r}"


@pytest.fixture(params=["oracle", "ml"])
def estimator(request, tiny_models):
    if request.param == "oracle":
        return OracleEstimator()
    return MLEstimator(tiny_models)


class TestPackEachParity:
    def test_bit_identical_to_per_problem_pack(self, tiny_config,
                                               tiny_trace, estimator):
        for t in (0, 3):
            system = multidc_system(tiny_config)
            warm = SchedulingRound(system, tiny_trace, t, estimator)
            ref_round = SchedulingRound(system, tiny_trace, t, estimator)
            vm_ids = sorted(system.vms)
            results = warm.pack_each(vm_ids)
            assert set(results) == set(vm_ids)
            for vm_id in vm_ids:
                ref = ref_round.pack(ref_round.problem(scope_vms=[vm_id]))
                assert_results_equal(ref, results[vm_id],
                                     context=f"t={t} vm={vm_id}")

    def test_repeat_queries_stable(self, tiny_config, tiny_trace,
                                   estimator):
        """The release/restore leaves the shared batch untouched."""
        system = multidc_system(tiny_config)
        warm = SchedulingRound(system, tiny_trace, 0, estimator)
        vm_ids = sorted(system.vms)
        first = warm.pack_each(vm_ids)
        # Interleave single-VM queries with the full set: any state leak
        # from one query would skew a later one.
        for vm_id in vm_ids:
            again = warm.pack_each([vm_id])[vm_id]
            assert_results_equal(first[vm_id], again, context=vm_id)
        second = warm.pack_each(vm_ids)
        for vm_id in vm_ids:
            assert_results_equal(first[vm_id], second[vm_id],
                                 context=vm_id)

    def test_min_gain_respected(self, tiny_config, tiny_trace, estimator):
        """A huge hysteresis margin pins every placed VM to its host."""
        system = multidc_system(tiny_config)
        placement = system.placement()
        warm = SchedulingRound(system, tiny_trace, 1, estimator)
        results = warm.pack_each(sorted(placement), min_gain_eur=1e9)
        for vm_id, result in results.items():
            assert result.assignment[vm_id] == placement[vm_id]

    def test_untraced_vm_gets_empty_result(self, tiny_config, tiny_trace,
                                           estimator, monkeypatch):
        system = multidc_system(tiny_config)
        warm = SchedulingRound(system, tiny_trace, 0, estimator)
        # Any name the trace does not carry behaves like an untraced VM
        # in problem(): it is filtered from scope, leaving an empty
        # problem — pack_each mirrors that with an empty result.
        some_vm = sorted(system.vms)[0]
        monkeypatch.setattr(warm.fleet, "traced_set",
                            warm.fleet.traced_set - {some_vm})
        result = warm.pack_each([some_vm])[some_vm]
        assert result.assignment == {}
        assert result.evaluations == {}
        assert result.order == []


class TestPackEachSharedState:
    def test_batch_columns_restored_exactly(self, tiny_config, tiny_trace,
                                            tiny_models):
        """Every released column is restored bit-for-bit after a query."""
        system = multidc_system(tiny_config)
        warm = SchedulingRound(system, tiny_trace, 0,
                               MLEstimator(tiny_models))
        batch, scorer = warm._base_scorer()
        before = {
            "used_cpu": batch.used_cpu.copy(),
            "used_mem": batch.used_mem.copy(),
            "used_bw": batch.used_bw.copy(),
            "committed_cpu_sum": batch.committed_cpu_sum.copy(),
            "committed_count": batch.committed_count.copy(),
            "watts": scorer._watts_before_run.copy(),
            "hosts": list(batch.hosts),
        }
        warm.pack_each(sorted(system.vms))
        assert np.array_equal(before["used_cpu"], batch.used_cpu)
        assert np.array_equal(before["used_mem"], batch.used_mem)
        assert np.array_equal(before["used_bw"], batch.used_bw)
        assert np.array_equal(before["committed_cpu_sum"],
                              batch.committed_cpu_sum)
        assert np.array_equal(before["committed_count"],
                              batch.committed_count)
        assert np.array_equal(before["watts"], scorer._watts_before_run)
        assert before["hosts"] == list(batch.hosts)
