"""Scheduler scalability measurements (paper §IV.C / §VI.1).

The paper's scalability story: Best-Fit from scratch costs O(VMs x PMs) per
round; the hierarchical decomposition (per-DC problems plus a narrow global
problem) "largely reduces solving cost"; and future work asks "how many
PMs/VMs we can manage per scheduling round".  This module measures exactly
that: wall-clock per scheduling round for the flat and hierarchical
schedulers across fleet sizes, using the oracle estimator so model
inference cost does not confound the scheduling cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.bestfit import SchedulingRound
from ..core.estimators import OracleEstimator
from ..core.hierarchical import HierarchicalScheduler
from ..core.model import (HostView, ObjectiveWeights, SchedulingProblem,
                          VMRequest)
from ..core.profit import PriceBook
from ..core.sla import SLAContract
from ..sim.demand import LoadVector
from ..sim.machines import Resources, VirtualMachine
from ..sim.network import PAPER_LOCATIONS, paper_network_model
from ..sim.power import atom_power_model
from .scenario import ScenarioConfig, multidc_system, multidc_trace

__all__ = ["ScalingPoint", "ScalingResult", "run_scaling", "format_scaling",
           "synthetic_fleet_problem", "synthetic_fleet_system",
           "synthetic_hierarchical_fleet"]


@dataclass(frozen=True)
class ScalingPoint:
    """One fleet size's per-round cost."""

    n_vms: int
    n_pms: int
    flat_ms: float
    hierarchical_ms: float
    global_hosts_offered: int

    @property
    def speedup(self) -> float:
        if self.hierarchical_ms <= 0:
            return float("inf")
        return self.flat_ms / self.hierarchical_ms


@dataclass
class ScalingResult:
    points: List[ScalingPoint]

    def flat_cost_ratio(self) -> float:
        """Cost growth of flat Best-Fit from smallest to largest fleet."""
        if len(self.points) < 2 or self.points[0].flat_ms <= 0:
            return 1.0
        return self.points[-1].flat_ms / self.points[0].flat_ms


def _time_call(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def _measure_scaling(sizes: Sequence[Tuple[int, int]] = ((5, 1), (10, 2),
                                                         (20, 4), (40, 8)),
                     seed: int = 23) -> ScalingResult:
    """Measure per-round cost at each (n_vms, pms_per_dc) size."""
    points: List[ScalingPoint] = []
    for n_vms, pms_per_dc in sizes:
        config = ScenarioConfig(pms_per_dc=pms_per_dc, n_vms=n_vms,
                                n_intervals=4, scale=3.0, seed=seed)
        trace = multidc_trace(config)
        system = multidc_system(config)
        system.step(trace, 0)  # populate demands

        estimator = OracleEstimator()

        def flat_round():
            SchedulingRound(system, trace, 1, estimator).best_fit()

        hier = HierarchicalScheduler(estimator=estimator,
                                     sla_move_threshold=0.9)

        def hier_round():
            hier(system, trace, 1)

        flat_ms = _time_call(flat_round)
        hier_ms = _time_call(hier_round)
        points.append(ScalingPoint(
            n_vms=n_vms, n_pms=pms_per_dc * len(config.locations),
            flat_ms=flat_ms, hierarchical_ms=hier_ms,
            global_hosts_offered=len(hier.last_round.offered_hosts)))
    return ScalingResult(points=points)


def synthetic_fleet_problem(n_hosts: int = 200, n_vms: int = 500,
                            seed: int = 7,
                            weights: Optional[ObjectiveWeights] = None
                            ) -> SchedulingProblem:
    """A large, self-contained scheduling round for scaling studies.

    Hosts spread over the paper's four locations with per-location energy
    tariffs and a third of the fleet powered down; every other VM already
    has a current host, so migration penalties and blackout haircuts are
    exercised.  Uses the oracle estimator: model inference cost must not
    confound the scheduling cost being measured.
    """
    if n_hosts < 1 or n_vms < 1:
        raise ValueError("need at least one host and one VM")
    rng = np.random.default_rng(seed)
    power = atom_power_model()
    prices = {loc: p for loc, p in zip(
        PAPER_LOCATIONS, (0.09, 0.12, 0.15, 0.10))}
    hosts = [HostView(pm_id=f"pm{i:04d}",
                      location=PAPER_LOCATIONS[i % len(PAPER_LOCATIONS)],
                      capacity=Resources(cpu=400.0, mem=4096.0,
                                         bw=125_000.0),
                      power_model=power,
                      energy_price_eur_kwh=prices[
                          PAPER_LOCATIONS[i % len(PAPER_LOCATIONS)]],
                      initially_on=bool(i % 3))
             for i in range(n_hosts)]
    requests: List[VMRequest] = []
    for j in range(n_vms):
        source = PAPER_LOCATIONS[j % len(PAPER_LOCATIONS)]
        current = (f"pm{int(rng.integers(0, n_hosts)):04d}"
                   if j % 2 else None)
        current_loc = (PAPER_LOCATIONS[int(current[2:])
                                       % len(PAPER_LOCATIONS)]
                       if current else None)
        requests.append(VMRequest(
            vm=VirtualMachine(vm_id=f"vm{j:04d}"),
            contract=SLAContract(),
            loads={source: LoadVector(float(rng.uniform(1.0, 40.0)),
                                      4000.0, 0.02)},
            current_pm=current, current_location=current_loc))
    return SchedulingProblem(
        requests=requests, hosts=hosts, network=paper_network_model(),
        prices=PriceBook(energy_price_eur_kwh=prices),
        estimator=OracleEstimator(),
        weights=weights or ObjectiveWeights())


def synthetic_fleet_system(n_hosts: int = 200, n_vms: int = 500,
                           n_intervals: int = 96, seed: int = 7,
                           trace=None):
    """A large live fleet for end-to-end stepping studies.

    Hosts spread over the paper's four locations (tariffs included), VMs
    deployed round-robin so most hosts are multi-tenant, and a diurnal
    per-VM load (timezone-shifted sinusoid plus noise) with one or two
    client regions per VM — enough variety to exercise bursting,
    contention, memory saturation and per-source latency weighting.
    Returns ``(system, trace)``; build it twice (same seed) for
    differential runs, since placement state is mutable.  Passing a
    previously returned ``trace`` skips regenerating it (the trace is
    deterministic given the parameters; the system build is unaffected).
    """
    if n_hosts < len(PAPER_LOCATIONS) or n_vms < 1 or n_intervals < 1:
        raise ValueError("need >= 1 host per DC, >= 1 VM and >= 1 interval")
    from ..sim.datacenter import PAPER_ENERGY_PRICES, build_datacenter
    from ..sim.multidc import MultiDCSystem
    from ..workload.traces import SourceSeries, WorkloadTrace

    rng = np.random.default_rng(seed)
    per_dc = [n_hosts // len(PAPER_LOCATIONS)] * len(PAPER_LOCATIONS)
    per_dc[0] += n_hosts - sum(per_dc)
    dcs = [build_datacenter(loc, n) for loc, n in
           zip(PAPER_LOCATIONS, per_dc)]
    vms = {f"vm{j:04d}": VirtualMachine(vm_id=f"vm{j:04d}")
           for j in range(n_vms)}
    system = MultiDCSystem(
        datacenters=dcs, vms=vms, network=paper_network_model(),
        prices=PriceBook(energy_price_eur_kwh=PAPER_ENERGY_PRICES))
    if trace is None:
        trace = WorkloadTrace(interval_s=600.0)
        hours = np.arange(n_intervals) * trace.interval_s / 3600.0
        for j, vm_id in enumerate(vms):
            base = float(rng.uniform(2.0, 25.0))
            phase = (j % len(PAPER_LOCATIONS)) / len(PAPER_LOCATIONS)
            for k in range(1 + j % 2):
                src = PAPER_LOCATIONS[(j + k) % len(PAPER_LOCATIONS)]
                rps = base * (1.0 + 0.6 * np.sin(
                    2.0 * np.pi * (hours / 24.0 + phase)))
                rps = np.maximum(0.0, rps + rng.normal(0.0, 0.1 * base,
                                                       n_intervals))
                trace.add(vm_id, src, SourceSeries(
                    rps=rps,
                    bytes_per_req=np.full(
                        n_intervals, float(rng.uniform(2000.0, 8000.0))),
                    cpu_time_per_req=np.full(
                        n_intervals, float(rng.uniform(0.01, 0.03)))))
    pm_ids = [pm.pm_id for dc in dcs for pm in dc.pms]
    system.deploy_many({vm_id: pm_ids[j % len(pm_ids)]
                        for j, vm_id in enumerate(vms)})
    return system, trace


def synthetic_hierarchical_fleet(n_dcs: int = 8, pms_per_dc: int = 56,
                                 n_vms: int = 3000, n_intervals: int = 6,
                                 sources_per_vm: int = 8, seed: int = 11,
                                 trace=None):
    """A many-DC live fleet for hierarchical scheduling studies.

    ``n_dcs`` synthetic locations with deterministic pairwise backbone
    latencies and per-DC tariffs, identical Atom hosts per DC, VMs
    deployed round-robin, and a diurnal per-VM load fanned over
    ``sources_per_vm`` client regions — the shape §IV.C's two-layer
    decomposition targets (many small intra-DC problems plus one narrow
    global problem).  Contracts use a relaxed RT0 (0.25 s) so that
    serving a globally-fanned load stays SLA-viable over WAN latencies —
    the scheduler then works in the interesting regime where placement
    moves the SLA instead of everything being hopeless.  Returns
    ``(system, trace)``; build twice with the same seed for differential
    runs (placement state is mutable).  Passing a previously returned
    ``trace`` skips regenerating it (deterministic given the parameters;
    the system build is unaffected).
    """
    if n_dcs < 1 or pms_per_dc < 1 or n_vms < 1 or n_intervals < 1:
        raise ValueError("need >= 1 DC, PM per DC, VM and interval")
    if not 1 <= sources_per_vm <= n_dcs:
        raise ValueError("sources_per_vm must lie in [1, n_dcs]")
    from ..sim.datacenter import build_datacenter
    from ..sim.multidc import MultiDCSystem
    from ..sim.network import LatencyMatrix, NetworkModel
    from ..workload.traces import SourceSeries, WorkloadTrace

    rng = np.random.default_rng(seed)
    locations = [f"DC{i:02d}" for i in range(n_dcs)]
    pairs = {(locations[i], locations[j]):
             float(rng.uniform(60.0, 400.0))
             for i in range(n_dcs) for j in range(i + 1, n_dcs)}
    network = NetworkModel(
        latency=LatencyMatrix.from_pairs(locations, pairs))
    tariffs = {loc: float(rng.uniform(0.09, 0.16)) for loc in locations}
    dcs = [build_datacenter(loc, pms_per_dc,
                            energy_price_eur_kwh=tariffs[loc])
           for loc in locations]
    vms = {f"vm{j:05d}": VirtualMachine(vm_id=f"vm{j:05d}", rt0=0.25)
           for j in range(n_vms)}
    # Total per-VM rate is independent of the source fan-out, and sized
    # so the fleet lands at moderate utilization (placement has room to
    # matter without drowning every host).
    rate_scale = 1.0 / sources_per_vm
    system = MultiDCSystem(
        datacenters=dcs, vms=vms, network=network,
        prices=PriceBook(energy_price_eur_kwh=tariffs))
    if trace is None:
        trace = WorkloadTrace(interval_s=600.0)
        hours = np.arange(n_intervals) * trace.interval_s / 3600.0
        for j, vm_id in enumerate(vms):
            base = float(rng.uniform(2.0, 22.0)) * rate_scale
            phase = (j % n_dcs) / n_dcs
            for k in range(sources_per_vm):
                src = locations[(j + k) % n_dcs]
                rps = base * (1.0 + 0.6 * np.sin(
                    2.0 * np.pi * (hours / 24.0 + phase
                                   + k / (2.0 * n_dcs))))
                rps = np.maximum(0.0, rps + rng.normal(0.0, 0.1 * base,
                                                       n_intervals))
                trace.add(vm_id, src, SourceSeries(
                    rps=rps,
                    bytes_per_req=np.full(
                        n_intervals, float(rng.uniform(2000.0, 8000.0))),
                    cpu_time_per_req=np.full(
                        n_intervals, float(rng.uniform(0.01, 0.03)))))
    pm_ids = [pm.pm_id for dc in dcs for pm in dc.pms]
    system.deploy_many({vm_id: pm_ids[j % len(pm_ids)]
                        for j, vm_id in enumerate(vms)})
    return system, trace


# -- engine integration: the measurements as analysis-only specs --------------
#
# The scaling experiment times schedulers, so it does not decompose into
# engine variants; it plugs into the engine as an analysis hook instead,
# which makes it registry-visible (``scenarios run scaling``) with the
# measurement code untouched.

def _make_measurement(name, description, measure, fmt, defaults):
    from .engine import (ANALYSES, REGISTRY, ScenarioSpec, ScenarioResult,
                         run_scenario)

    def spec(**params) -> "ScenarioSpec":
        merged = dict(defaults)
        merged.update({k: v for k, v in params.items() if v is not None})
        return ScenarioSpec(name=name, description=description,
                            analysis=name, params=merged)

    def analysis(result: "ScenarioResult") -> dict:
        measured = measure(**dict(result.spec.params))
        return {"result": measured, "report": fmt(measured)}

    def run(**params):
        return run_scenario(spec(**params)).extras["result"]

    ANALYSES[name] = analysis

    def factory(n_intervals=None, seed=None, scale=None):
        overrides = {"n_intervals": n_intervals, "seed": seed,
                     "scale": scale}
        flags = {"n_intervals": "--intervals", "seed": "--seed",
                 "scale": "--scale"}
        unsupported = [flags[k] for k, v in overrides.items()
                       if v is not None and k not in defaults]
        if unsupported:
            raise ValueError(
                f"scenario {name!r} is a timing measurement with no "
                f"{'/'.join(unsupported)} knob")
        return spec(**{k: v for k, v in overrides.items()
                       if v is not None})

    REGISTRY.register(name, description=description)(factory)
    return spec, run


scaling_spec, _run_scaling = _make_measurement(
    "scaling", "Scheduler scalability — flat vs hierarchical per-round "
    "cost", _measure_scaling, lambda r: format_scaling(r),
    dict(sizes=((5, 1), (10, 2), (20, 4), (40, 8)), seed=23))


def run_scaling(sizes: Sequence[Tuple[int, int]] = ((5, 1), (10, 2),
                                                    (20, 4), (40, 8)),
                seed: int = 23) -> ScalingResult:
    """Measure per-round cost at each size (via the scenario engine)."""
    return _run_scaling(sizes=tuple(sizes), seed=seed)


def format_scaling(result: ScalingResult) -> str:
    lines = [
        "Scheduler scalability (per-round wall clock, oracle estimator)",
        f"{'VMs':>4} {'PMs':>4} {'flat ms':>9} {'hier ms':>9} "
        f"{'offered':>8}",
    ]
    for p in result.points:
        lines.append(f"{p.n_vms:>4} {p.n_pms:>4} {p.flat_ms:>9.2f} "
                     f"{p.hierarchical_ms:>9.2f} "
                     f"{p.global_hosts_offered:>8}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(format_scaling(run_scaling()))
