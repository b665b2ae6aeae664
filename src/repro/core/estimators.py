"""Estimators: where the decision maker's knowledge of the system comes from.

The paper's central comparison is between schedulers whose fit/QoS decisions
are driven by

* **observed** behaviour — "the resources [the VM] has used in the last 10
  minutes" (plain Best-Fit and the 2x-overbooking variant), and
* **learned models** — the Table I predictors anticipating requirements and
  SLA for *tentative* placements (ML-enhanced Best-Fit).

Both, plus a ground-truth oracle used for upper bounds and tests, implement
the same small interface consumed by :mod:`repro.core.model`:

``required_resources``
    What the VM needs for its expected load (Figure 3 constraint 5.1).
``pm_cpu``
    Host CPU for a tentative co-location, incl. hypervisor overhead.
``process_rt`` / ``process_sla``
    Production-side outcome of a tentative grant (constraints 6.1, 7);
    ``process_rt`` may return None when the estimator can only score SLA
    directly (the paper's preferred k-NN path).

Each method has a ``*_batch`` twin over many VMs or hosts at once, which
is what the schedulers call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..ml.calibration import RiskConfig
from ..ml.predictors import ModelSet
from ..sim.demand import DemandModel, LoadVector
from ..sim.machines import Resources, VirtualMachine
from ..sim.monitor import Monitor
from ..sim.rtmodel import ResponseTimeModel
from .sla import SLAContract

__all__ = ["Estimator", "OracleEstimator", "ObservedEstimator",
           "MLEstimator"]


def _fit_fraction(required: Resources, given_cpu, given_mem,
                  given_bw) -> Tuple[np.ndarray, np.ndarray]:
    """Per-host (fits, worst granted/required ratio) for one demand.

    The same fit arithmetic :class:`ObservedEstimator` scores SLA with;
    shared so the risk-aware ML path can fall back to it where the
    learned models have no support (starved grants).
    """
    gc = np.asarray(given_cpu, dtype=float)
    gm = np.asarray(given_mem, dtype=float)
    gb = np.asarray(given_bw, dtype=float)
    fits = ((required.cpu <= gc + 1e-9) & (required.mem <= gm + 1e-9)
            & (required.bw <= gb + 1e-9))
    ones = np.ones_like(gc)
    frac = np.minimum(
        np.minimum(gc / required.cpu if required.cpu > 0 else ones,
                   gm / required.mem if required.mem > 0 else ones),
        gb / required.bw if required.bw > 0 else ones)
    return fits, frac


class Estimator:
    """Interface; see module docstring.  Subclasses override all methods.

    The ``*_batch`` methods answer the same queries for one VM against a
    whole host batch at once (aligned arrays, one entry per candidate
    host); the round scorer calls only these, so every estimator must
    implement them, element-for-element equal to the scalar methods.  An
    estimator must be *consistent* about its RT path: ``process_rt`` and
    ``process_rt_batch`` return None for every host or for none (all
    built-ins are).
    """

    def required_resources(self, vm: VirtualMachine, load: LoadVector,
                           cpu_cap: float) -> Resources:
        raise NotImplementedError

    def pm_cpu(self, vm_cpus: Sequence[float]) -> float:
        raise NotImplementedError

    def process_rt(self, vm: VirtualMachine, load: LoadVector,
                   required: Resources, given: Resources,
                   queue_len: float = 0.0) -> Optional[float]:
        raise NotImplementedError

    def process_sla(self, vm: VirtualMachine, load: LoadVector,
                    required: Resources, given: Resources,
                    contract: SLAContract,
                    queue_len: float = 0.0) -> float:
        raise NotImplementedError

    # -- batch interface (vectorized over candidate hosts) -------------------
    def required_resources_batch(self, vms: Sequence[VirtualMachine],
                                 rps, bytes_per_req, cpu_time_per_req,
                                 cpu_cap: float) -> Tuple:
        """Per-VM ``(cpu, mem, bw)`` demand arrays from aligned
        aggregate-load arrays (one entry per VM of ``vms``)."""
        raise NotImplementedError

    def pm_cpu_batch(self, counts, sums) -> np.ndarray:
        """Host CPU from per-host (#VMs, sum of VM CPU) aggregates."""
        raise NotImplementedError

    def process_rt_batch(self, vm: VirtualMachine, load: LoadVector,
                         required: Resources, given_cpu, given_mem,
                         given_bw,
                         queue_len: float = 0.0) -> Optional[np.ndarray]:
        """Per-host :meth:`process_rt`; None when the estimator scores SLA
        directly."""
        raise NotImplementedError

    def process_sla_batch(self, vm: VirtualMachine, load: LoadVector,
                          required: Resources, given_cpu, given_mem,
                          given_bw, contract: SLAContract,
                          queue_len: float = 0.0) -> np.ndarray:
        """Per-host :meth:`process_sla`."""
        raise NotImplementedError


@dataclass
class OracleEstimator:
    """Ground truth from the simulator's own models (upper-bound baseline)."""

    demand_model: DemandModel = field(default_factory=DemandModel)
    rt_model: ResponseTimeModel = field(default_factory=ResponseTimeModel)

    def required_resources(self, vm: VirtualMachine, load: LoadVector,
                           cpu_cap: float) -> Resources:
        # cpu_cap caps the *demand estimate*, not the grant (the VM's
        # configured maximum applies to grants); callers pass inf to see
        # overload as demand beyond any host.
        return self.demand_model.required_resources(
            load, vm.base_mem_mb, cpu_cap=cpu_cap)

    def pm_cpu(self, vm_cpus: Sequence[float]) -> float:
        return self.demand_model.pm_cpu(np.asarray(list(vm_cpus)))

    def process_rt(self, vm: VirtualMachine, load: LoadVector,
                   required: Resources, given: Resources,
                   queue_len: float = 0.0) -> Optional[float]:
        return self.rt_model.process_rt(load, required, given)

    def process_sla(self, vm: VirtualMachine, load: LoadVector,
                    required: Resources, given: Resources,
                    contract: SLAContract,
                    queue_len: float = 0.0) -> float:
        rt = self.process_rt(vm, load, required, given, queue_len)
        return contract.fulfillment(rt)

    # -- batch interface ------------------------------------------------------
    def required_resources_batch(self, vms: Sequence[VirtualMachine],
                                 rps, bytes_per_req, cpu_time_per_req,
                                 cpu_cap: float) -> Tuple:
        base_mem = np.array([vm.base_mem_mb for vm in vms], dtype=float)
        return self.demand_model.required_batch(
            np.asarray(rps, dtype=float),
            np.asarray(bytes_per_req, dtype=float),
            np.asarray(cpu_time_per_req, dtype=float),
            base_mem, cpu_cap=cpu_cap)

    def pm_cpu_batch(self, counts, sums) -> np.ndarray:
        return self.demand_model.pm_cpu_batch(counts, sums)

    def process_rt_batch(self, vm: VirtualMachine, load: LoadVector,
                         required: Resources, given_cpu, given_mem,
                         given_bw, queue_len: float = 0.0) -> np.ndarray:
        return self.rt_model.process_rt_arrays(
            load.cpu_time_per_req, load.rps, required.cpu, given_cpu,
            required.mem, given_mem, required.bw, given_bw)

    def process_sla_batch(self, vm: VirtualMachine, load: LoadVector,
                          required: Resources, given_cpu, given_mem,
                          given_bw, contract: SLAContract,
                          queue_len: float = 0.0) -> np.ndarray:
        rt = self.process_rt_batch(vm, load, required, given_cpu,
                                   given_mem, given_bw, queue_len)
        return contract.fulfillment(rt)


@dataclass
class ObservedEstimator:
    """Last-round monitored usage; the paper's non-ML Best-Fit inputs.

    Requirements are whatever the hypervisor measured in the previous
    scheduling round (optionally scaled by ``overbook`` — the BF-OB variant
    books double).  The estimator is *reactive*: it has no way to anticipate
    load-driven RT degradation, so it scores SLA only through the resource
    fit (fits => compliant), which is exactly the blind spot the paper's ML
    models remove.
    """

    monitor: Monitor
    overbook: float = 1.0
    #: Fallback when a VM has never been observed (first placement).
    default_required: Resources = field(
        default_factory=lambda: Resources(cpu=100.0, mem=512.0, bw=500.0))

    def __post_init__(self) -> None:
        if self.overbook <= 0:
            raise ValueError("overbook must be positive")
        self._last: Dict[str, Tuple[int, Resources, float]] = {}

    def refresh(self) -> None:
        """Index the newest observation per VM (call once per round)."""
        for s in self.monitor.vm_samples:
            prev = self._last.get(s.vm_id)
            if prev is None or s.t >= prev[0]:
                self._last[s.vm_id] = (
                    s.t,
                    Resources(cpu=s.used_cpu, mem=s.used_mem,
                              bw=s.net_in + s.net_out),
                    s.rt)

    def last_observation_t(self, vm_id: str) -> Optional[int]:
        entry = self._last.get(vm_id)
        return None if entry is None else entry[0]

    def observed_usage(self, vm_id: str) -> Optional[Resources]:
        entry = self._last.get(vm_id)
        return None if entry is None else entry[1]

    def required_resources(self, vm: VirtualMachine, load: LoadVector,
                           cpu_cap: float) -> Resources:
        entry = self._last.get(vm.vm_id)
        base = entry[1] if entry is not None else self.default_required
        booked = base * self.overbook
        # Booking beyond the VM's configured ceiling is meaningless — the
        # hypervisor would never grant it.
        return Resources(cpu=min(booked.cpu, vm.max_resources.cpu, cpu_cap),
                         mem=min(booked.mem, vm.max_resources.mem),
                         bw=min(booked.bw, vm.max_resources.bw))

    def pm_cpu(self, vm_cpus: Sequence[float]) -> float:
        # No learned overhead model: the naive sum (the paper notes this
        # underestimates real PM CPU).
        return float(np.sum(np.asarray(list(vm_cpus))))

    def process_rt(self, vm: VirtualMachine, load: LoadVector,
                   required: Resources, given: Resources,
                   queue_len: float = 0.0) -> Optional[float]:
        # A reactive monitor cannot price a *tentative* placement's RT;
        # plain Best-Fit decides on fit, power and latency only.
        return None

    def process_sla(self, vm: VirtualMachine, load: LoadVector,
                    required: Resources, given: Resources,
                    contract: SLAContract,
                    queue_len: float = 0.0) -> float:
        # Reactive view: if the booked resources fit, assume compliance;
        # degrade proportionally on shortfall.
        if required.fits_in(given, slack=1e-9):
            return 1.0
        frac = min((given.cpu / required.cpu) if required.cpu > 0 else 1.0,
                   (given.mem / required.mem) if required.mem > 0 else 1.0,
                   (given.bw / required.bw) if required.bw > 0 else 1.0)
        return max(0.0, frac)

    # -- batch interface ------------------------------------------------------
    def required_resources_batch(self, vms: Sequence[VirtualMachine],
                                 rps, bytes_per_req, cpu_time_per_req,
                                 cpu_cap: float) -> Tuple:
        # Observed bookings are load-independent: gather the last
        # observation per VM, then apply the same overbook-and-clip the
        # scalar method applies (floats, so results are bit-identical).
        n = len(vms)
        cpu = np.empty(n)
        mem = np.empty(n)
        bw = np.empty(n)
        for j, vm in enumerate(vms):
            entry = self._last.get(vm.vm_id)
            base = entry[1] if entry is not None else self.default_required
            cpu[j] = min(base.cpu * self.overbook, vm.max_resources.cpu,
                         cpu_cap)
            mem[j] = min(base.mem * self.overbook, vm.max_resources.mem)
            bw[j] = min(base.bw * self.overbook, vm.max_resources.bw)
        return cpu, mem, bw

    def pm_cpu_batch(self, counts, sums) -> np.ndarray:
        return np.asarray(sums, dtype=float)

    def process_rt_batch(self, vm: VirtualMachine, load: LoadVector,
                         required: Resources, given_cpu, given_mem,
                         given_bw, queue_len: float = 0.0) -> None:
        return None

    def process_sla_batch(self, vm: VirtualMachine, load: LoadVector,
                          required: Resources, given_cpu, given_mem,
                          given_bw, contract: SLAContract,
                          queue_len: float = 0.0) -> np.ndarray:
        fits, frac = _fit_fraction(required, given_cpu, given_mem, given_bw)
        return np.where(fits, 1.0, np.maximum(0.0, frac))


@dataclass
class MLEstimator:
    """Table I models driving the scheduler (the paper's contribution).

    ``sla_mode`` selects the §IV.B design choice:

    * ``"direct"`` — predict SLA with k-NN (the paper's pick);
    * ``"rt"`` — predict RT with M5P and push it through the contract.

    ``risk`` (a :class:`~repro.ml.calibration.RiskConfig`) turns on
    uncertainty-aware scoring: the QoS prediction is shifted to its
    conservative side by the predictor's split-conformal margin plus a
    weighted ensemble spread (SLA lowered / RT raised), and demand
    estimates are optionally inflated to their conformal upper bound.
    This is the antidote to ranking amplification: argmax over many
    candidate hosts picks the most *optimistic* score, so the penalty is
    largest exactly where a single model's noise would win the round.
    The scalar methods delegate to the batch ones on one-element arrays
    whenever risk is on, so both paths stay equal by construction.
    """

    models: ModelSet
    sla_mode: str = "direct"
    risk: Optional[RiskConfig] = None

    def __post_init__(self) -> None:
        if self.sla_mode not in ("direct", "rt"):
            raise ValueError("sla_mode must be 'direct' or 'rt'")
        if self.risk is not None:
            # Resolve the margins once — they are fixed numbers per
            # (model set, coverage), and a missing calibration must fail
            # here, not mid-round.
            score_key = "vm_sla" if self.sla_mode == "direct" else "vm_rt"
            self._score_margin = self.models.conformal_margin(
                score_key, self.risk.coverage)
            self._demand_margins = (
                self.models.demand_margins(self.risk.demand_coverage)
                if self.risk.demand_coverage is not None else None)

    def required_resources(self, vm: VirtualMachine, load: LoadVector,
                           cpu_cap: float) -> Resources:
        base = self.models.predict_requirements(
            load, cpu_cap=cpu_cap, mem_floor=vm.base_mem_mb)
        if self.risk is None or self._demand_margins is None:
            return base
        dm = self._demand_margins
        return Resources(cpu=min(base.cpu + dm.cpu, cpu_cap),
                         mem=base.mem + dm.mem,
                         bw=base.bw + dm.bw)

    def pm_cpu(self, vm_cpus: Sequence[float]) -> float:
        return self.models.predict_pm_cpu(vm_cpus)

    def process_rt(self, vm: VirtualMachine, load: LoadVector,
                   required: Resources, given: Resources,
                   queue_len: float = 0.0) -> Optional[float]:
        # In direct mode the k-NN SLA score drives the decision (the
        # paper's preferred design); returning None routes the placement
        # scorer through process_sla.
        if self.sla_mode == "direct":
            return None
        if self.risk is not None:
            return float(self.process_rt_batch(
                vm, load, required, np.array([given.cpu]),
                np.array([given.mem]), np.array([given.bw]),
                queue_len=queue_len)[0])
        return self.models.predict_rt(load, given, queue_len=queue_len)

    def predict_rt(self, load: LoadVector, given: Resources,
                   queue_len: float = 0.0) -> float:
        """Raw RT prediction, regardless of sla_mode (for ablations)."""
        return self.models.predict_rt(load, given, queue_len=queue_len)

    def process_sla(self, vm: VirtualMachine, load: LoadVector,
                    required: Resources, given: Resources,
                    contract: SLAContract,
                    queue_len: float = 0.0) -> float:
        if self.risk is not None:
            return float(self.process_sla_batch(
                vm, load, required, np.array([given.cpu]),
                np.array([given.mem]), np.array([given.bw]), contract,
                queue_len=queue_len)[0])
        if self.sla_mode == "direct":
            return self.models.predict_sla(load, given, queue_len=queue_len)
        rt = self.models.predict_rt(load, given, queue_len=queue_len)
        return contract.fulfillment(rt)

    # -- batch interface ------------------------------------------------------
    def required_resources_batch(self, vms: Sequence[VirtualMachine],
                                 rps, bytes_per_req, cpu_time_per_req,
                                 cpu_cap: float) -> Tuple:
        # One model-set prediction for the whole round instead of one
        # 1-row prediction per VM; the predictors are row-independent, so
        # results match the scalar method element-for-element.
        mem_floor = np.array([vm.base_mem_mb for vm in vms], dtype=float)
        cpu, mem, bw = self.models.predict_requirements_batch(
            rps, bytes_per_req, cpu_time_per_req, cpu_cap=cpu_cap,
            mem_floor=mem_floor)
        if self.risk is None or self._demand_margins is None:
            return cpu, mem, bw
        # Same scalar margins, same IEEE ops as the scalar method.
        dm = self._demand_margins
        return (np.minimum(cpu + dm.cpu, cpu_cap), mem + dm.mem,
                bw + dm.bw)

    def pm_cpu_batch(self, counts, sums) -> np.ndarray:
        return self.models.predict_pm_cpu_batch(counts, sums)

    def process_rt_batch(self, vm: VirtualMachine, load: LoadVector,
                         required: Resources, given_cpu, given_mem,
                         given_bw,
                         queue_len: float = 0.0) -> Optional[np.ndarray]:
        if self.sla_mode == "direct":
            return None
        if self.risk is not None:
            mean, spread = self.models.predict_rt_batch_stats(
                load, given_cpu, given_mem, given_bw, queue_len=queue_len)
            rt = (mean + self.risk.spread_weight * spread
                  + self._score_margin)
            if self.risk.fit_guard:
                # Starved grants are outside the harvest's support:
                # stretch the predicted RT by the worst shortfall ratio
                # (work at fit-fraction f of its resources takes >= 1/f
                # as long) instead of trusting the extrapolation.
                fits, frac = _fit_fraction(required, given_cpu, given_mem,
                                           given_bw)
                rt = np.where(fits, rt, rt / np.maximum(frac, 1e-12))
            return rt
        return self.models.predict_rt_batch(load, given_cpu, given_mem,
                                            given_bw, queue_len=queue_len)

    def process_sla_batch(self, vm: VirtualMachine, load: LoadVector,
                          required: Resources, given_cpu, given_mem,
                          given_bw, contract: SLAContract,
                          queue_len: float = 0.0) -> np.ndarray:
        if self.sla_mode == "direct":
            if self.risk is not None:
                mean, spread = self.models.predict_sla_batch_stats(
                    load, given_cpu, given_mem, given_bw,
                    queue_len=queue_len)
                sla = np.clip(mean - self.risk.spread_weight * spread
                              - self._score_margin, 0.0, 1.0)
                if self.risk.fit_guard:
                    # Cap by the fit-degradation bound where the demand
                    # does not fit: the learned score has no support
                    # there (see RiskConfig.fit_guard).
                    fits, frac = _fit_fraction(required, given_cpu,
                                               given_mem, given_bw)
                    sla = np.minimum(
                        sla, np.where(fits, 1.0, np.maximum(0.0, frac)))
                return sla
            return self.models.predict_sla_batch(load, given_cpu, given_mem,
                                                 given_bw,
                                                 queue_len=queue_len)
        rt = self.process_rt_batch(vm, load, required, given_cpu, given_mem,
                                   given_bw, queue_len=queue_len)
        return contract.fulfillment(rt)
