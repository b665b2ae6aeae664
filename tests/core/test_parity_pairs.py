"""Differential tests for every batch/scalar parity pair.

One file, every pair, both halves named — this is the test the lint
parity rule (PAR002, :mod:`repro.lint.parity`) points at.  Covered
pairs:

* ``DemandModel.required_batch`` vs ``required_resources``, and
  ``DemandModel.pm_cpu_batch`` vs ``pm_cpu``;
* ``pm_cpu_batch`` vs ``pm_cpu`` on every estimator (Oracle, Observed,
  ML — and the ``Estimator`` base contract that both are mandatory);
* ``ModelSet.predict_requirements_batch`` vs ``predict_requirements``,
  ``predict_rt_batch`` vs ``predict_rt``, ``predict_sla_batch`` vs
  ``predict_sla``, ``predict_pm_cpu_batch`` vs ``predict_pm_cpu``;
* the packing kernels: the ``_pack_batch`` loop (driven through
  ``descending_best_fit``) vs the scalar reference ``best_fit_scalar`` of
  the test oracle ``bestfit_oracle`` (driven through
  ``reference_best_fit``).
"""

import numpy as np
import pytest

from bestfit_oracle import best_fit_scalar, reference_best_fit
from repro.core.bestfit import _pack_batch, descending_best_fit
from repro.core.estimators import (Estimator, MLEstimator,
                                   ObservedEstimator, OracleEstimator)
from repro.core.model import (HostView, ObjectiveWeights,
                              SchedulingProblem, VMRequest)
from repro.core.profit import PriceBook
from repro.core.sla import PAPER_SLA
from repro.ml.predictors import ModelSet
from repro.sim.demand import DemandModel, LoadVector
from repro.sim.machines import (PhysicalMachine, Resources,
                                VirtualMachine)
from repro.sim.monitor import Monitor
from repro.sim.network import paper_network_model


def make_host(pm_id, location="BCN", price=0.15):
    return HostView.of(PhysicalMachine(pm_id=pm_id), location, price)


def make_request(vm_id, rps=10.0, sources=("BCN",), current_pm=None,
                 current_location=None):
    loads = {src: LoadVector(rps / len(sources), 4000.0, 0.05)
             for src in sources}
    return VMRequest(vm=VirtualMachine(vm_id=vm_id), contract=PAPER_SLA,
                     loads=loads, current_pm=current_pm,
                     current_location=current_location)


def make_problem(requests, hosts):
    return SchedulingProblem(requests=requests, hosts=hosts,
                             network=paper_network_model(),
                             prices=PriceBook(),
                             estimator=OracleEstimator(),
                             interval_s=600.0,
                             weights=ObjectiveWeights())

#: A spread of per-VM loads: idle, light, heavy, payload-heavy.
LOADS = [LoadVector(rps=0.0, bytes_per_req=1000.0, cpu_time_per_req=0.01),
         LoadVector(rps=4.0, bytes_per_req=8000.0, cpu_time_per_req=0.03),
         LoadVector(rps=55.0, bytes_per_req=4000.0, cpu_time_per_req=0.08),
         LoadVector(rps=20.0, bytes_per_req=64000.0, cpu_time_per_req=0.02)]

#: Per-host co-location profiles: empty, single, packed.
HOST_VM_CPUS = [[], [35.0], [10.0, 25.0, 60.0], [5.0, 5.0, 5.0, 5.0]]


def _counts_sums(profiles):
    counts = np.array([len(p) for p in profiles], dtype=float)
    sums = np.array([float(np.sum(p)) if p else 0.0 for p in profiles])
    return counts, sums


class TestDemandModelPairs:
    def test_required_batch_matches_required_resources(self):
        model = DemandModel()
        rps = np.array([lv.rps for lv in LOADS])
        bpr = np.array([lv.bytes_per_req for lv in LOADS])
        cpr = np.array([lv.cpu_time_per_req for lv in LOADS])
        base_mem = np.array([256.0, 512.0, 1024.0, 2048.0])
        cpu, mem, bw = model.required_batch(rps, bpr, cpr, base_mem,
                                            cpu_cap=400.0)
        for j, lv in enumerate(LOADS):
            ref = model.required_resources(lv, base_mem[j], cpu_cap=400.0)
            assert cpu[j] == pytest.approx(ref.cpu, abs=1e-12)
            assert mem[j] == pytest.approx(ref.mem, abs=1e-12)
            assert bw[j] == pytest.approx(ref.bw, abs=1e-12)

    def test_pm_cpu_batch_matches_pm_cpu(self):
        model = DemandModel()
        counts, sums = _counts_sums(HOST_VM_CPUS)
        batch = model.pm_cpu_batch(counts, sums)
        for j, cpus in enumerate(HOST_VM_CPUS):
            assert batch[j] == pytest.approx(model.pm_cpu(cpus), abs=1e-9)


class TestEstimatorPmCpuPairs:
    def test_base_estimator_batch_is_mandatory(self):
        # The base contract: the scorer calls only the batch interface,
        # so an estimator that does not implement it fails loudly.
        with pytest.raises(NotImplementedError):
            Estimator().pm_cpu_batch(*_counts_sums(HOST_VM_CPUS))
        with pytest.raises(NotImplementedError):
            Estimator().pm_cpu([1.0])

    def test_oracle_pm_cpu_batch_matches_scalar(self):
        est = OracleEstimator()
        counts, sums = _counts_sums(HOST_VM_CPUS)
        batch = est.pm_cpu_batch(counts, sums)
        for j, cpus in enumerate(HOST_VM_CPUS):
            assert batch[j] == pytest.approx(est.pm_cpu(cpus), abs=1e-9)

    def test_observed_pm_cpu_batch_matches_scalar(self):
        est = ObservedEstimator(monitor=Monitor(
            rng=np.random.default_rng(0)))
        counts, sums = _counts_sums(HOST_VM_CPUS)
        batch = est.pm_cpu_batch(counts, sums)
        for j, cpus in enumerate(HOST_VM_CPUS):
            assert batch[j] == pytest.approx(est.pm_cpu(cpus), abs=1e-9)

    def test_ml_pm_cpu_batch_matches_scalar(self, tiny_models):
        est = MLEstimator(models=tiny_models)
        counts, sums = _counts_sums(HOST_VM_CPUS)
        batch = est.pm_cpu_batch(counts, sums)
        for j, cpus in enumerate(HOST_VM_CPUS):
            assert batch[j] == pytest.approx(est.pm_cpu(cpus), rel=1e-9,
                                             abs=1e-9)


class TestModelSetPairs:
    def test_predict_requirements_batch_matches_scalar(self, tiny_models):
        models: ModelSet = tiny_models
        rps = np.array([lv.rps for lv in LOADS])
        bpr = np.array([lv.bytes_per_req for lv in LOADS])
        cpr = np.array([lv.cpu_time_per_req for lv in LOADS])
        floors = np.array([128.0, 512.0, 900.0, 4096.0])
        cpu, mem, bw = models.predict_requirements_batch(
            rps, bpr, cpr, cpu_cap=400.0, mem_floor=floors)
        for j, lv in enumerate(LOADS):
            ref: Resources = models.predict_requirements(
                lv, cpu_cap=400.0, mem_floor=floors[j])
            assert cpu[j] == pytest.approx(ref.cpu, rel=1e-9, abs=1e-9)
            assert mem[j] == pytest.approx(ref.mem, rel=1e-9, abs=1e-9)
            assert bw[j] == pytest.approx(ref.bw, rel=1e-9, abs=1e-9)

    def test_predict_rt_batch_matches_predict_rt(self, tiny_models):
        given_cpu = np.array([50.0, 120.0, 300.0])
        given_mem = np.array([512.0, 1024.0, 4096.0])
        given_bw = np.array([500.0, 2000.0, 9000.0])
        for lv in LOADS:
            batch = tiny_models.predict_rt_batch(lv, given_cpu, given_mem,
                                                 given_bw, queue_len=2.0)
            for j in range(3):
                ref = tiny_models.predict_rt(
                    lv, Resources(cpu=given_cpu[j], mem=given_mem[j],
                                  bw=given_bw[j]), queue_len=2.0)
                assert batch[j] == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_predict_sla_batch_matches_predict_sla(self, tiny_models):
        given_cpu = np.array([50.0, 120.0, 300.0])
        given_mem = np.array([512.0, 1024.0, 4096.0])
        given_bw = np.array([500.0, 2000.0, 9000.0])
        for lv in LOADS:
            batch = tiny_models.predict_sla_batch(lv, given_cpu, given_mem,
                                                  given_bw)
            for j in range(3):
                ref = tiny_models.predict_sla(
                    lv, Resources(cpu=given_cpu[j], mem=given_mem[j],
                                  bw=given_bw[j]))
                assert batch[j] == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_predict_pm_cpu_batch_matches_predict_pm_cpu(self, tiny_models):
        counts, sums = _counts_sums(HOST_VM_CPUS)
        batch = tiny_models.predict_pm_cpu_batch(counts, sums)
        for j, cpus in enumerate(HOST_VM_CPUS):
            ref = tiny_models.predict_pm_cpu(cpus)
            assert batch[j] == pytest.approx(ref, rel=1e-9, abs=1e-9)


class TestPackingKernelPair:
    """``_pack_batch`` vs the oracle's ``best_fit_scalar``."""

    def _problem(self):
        requests = [make_request("a", rps=40.0, sources=("BCN",)),
                    make_request("b", rps=12.0, sources=("BST",),
                                 current_pm="h1",
                                 current_location="BST"),
                    make_request("c", rps=3.0, sources=("BRS",)),
                    make_request("d", rps=25.0, sources=("BCN", "BST"))]
        hosts = [make_host("h0", "BCN"), make_host("h1", "BST"),
                 make_host("h2", "BRS", price=0.05)]
        return make_problem(requests, hosts)

    @pytest.mark.parametrize("min_gain", [0.0, 0.02])
    def test_batch_and_scalar_agree(self, min_gain):
        problem = self._problem()
        batch = descending_best_fit(problem, min_gain_eur=min_gain)
        scalar = reference_best_fit(problem, min_gain_eur=min_gain)
        assert batch.order == scalar.order
        assert batch.assignment == scalar.assignment
        for vm_id, ev in batch.evaluations.items():
            assert ev.profit_eur == pytest.approx(
                scalar.evaluations[vm_id].profit_eur, rel=1e-9, abs=1e-9)

    def test_kernels_are_the_documented_pair(self):
        # The registry contract the lint parity rule enforces: the batch
        # loop exists in the package and its scalar reference in the
        # test oracle.
        assert callable(best_fit_scalar)
        assert callable(_pack_batch)

    def test_single_host_degenerate_case(self):
        requests = [make_request("only", rps=10.0)]
        hosts = [make_host("h0")]
        problem = make_problem(requests, hosts)
        batch = descending_best_fit(problem)
        scalar = reference_best_fit(problem)
        assert batch.assignment == scalar.assignment == {"only": "h0"}
