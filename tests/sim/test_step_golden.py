"""Bit-exact golden of interval stepping, monolithic and sharded.

A 3-DC fleet plays six intervals with everything the stepper has to get
right: a time-varying tariff, contention, a host failure that orphans VMs
(traced VMs left unplaced), migrations with blackout penalties (one of
them orphaned before its blackout is consumed), a placed VM without a
trace series and an unplaced VM that has one.  Every float of every
report is recorded with ``repr``, so any change to the arithmetic or to
the order of a reduction - even in the last bit - fails the test.

Three runs of the same scenario are pinned:

* ``step`` - :meth:`MultiDCSystem.step`, full reports plus the system
  state it leaves behind (grants, ``last_demands``, pending blackouts);
* ``step_report`` - :meth:`ShardedFleet.step_report`, the report totals
  and the per-shard reductions;
* ``step_metrics`` - :meth:`ShardedFleet.step_metrics`, the KPI records
  and the per-shard reductions.

Regenerate with::

    PYTHONPATH=src python tests/sim/test_step_golden.py

(only after an intentional physics change; commit the diff with the
reason).
"""

import json
import pathlib

import numpy as np
import pytest

from repro.core.profit import PriceBook
from repro.sim.datacenter import PAPER_ENERGY_PRICES, build_datacenter
from repro.sim.machines import VirtualMachine
from repro.sim.multidc import MultiDCSystem
from repro.sim.network import paper_network_model
from repro.sim.sharding import ShardedFleet
from repro.sim.tariffs import TariffSchedule
from repro.workload.traces import SourceSeries, WorkloadTrace

GOLDEN = pathlib.Path(__file__).parent / "golden" / "step_reports.json"
MODES = ("step", "step_report", "step_metrics")

LOCS = ("BCN", "BST", "BNG")
PMS_PER_DC = (3, 2, 4)
N_VMS = 24
T = 6


def build():
    """The scenario's (system, trace) pair, freshly built."""
    rng = np.random.default_rng(2024)
    dcs = [build_datacenter(loc, n) for loc, n in zip(LOCS, PMS_PER_DC)]
    vms = {f"vm{i}": VirtualMachine(vm_id=f"vm{i}") for i in range(N_VMS)}
    vms["ghost"] = VirtualMachine(vm_id="ghost")   # placed, no series
    tariff = TariffSchedule({
        loc: rng.uniform(0.05, 0.30, T) for loc in LOCS})
    system = MultiDCSystem(
        datacenters=dcs, vms=vms, network=paper_network_model(),
        prices=PriceBook(energy_price_eur_kwh=PAPER_ENERGY_PRICES),
        tariff_schedule=tariff)
    trace = WorkloadTrace(interval_s=600.0)
    for i in range(N_VMS):
        for src in LOCS[: 1 + i % len(LOCS)]:
            trace.add(f"vm{i}", src, SourceSeries(
                rps=rng.uniform(0.0, 45.0, T),
                bytes_per_req=rng.uniform(1000.0, 8000.0, T),
                cpu_time_per_req=rng.uniform(0.005, 0.05, T)))
    pm_ids = [pm.pm_id for dc in dcs for pm in dc.pms]
    # vm23 stays unplaced for the whole run (traced, never hosted).
    system.deploy_many({f"vm{i}": pm_ids[(3 * i) % len(pm_ids)]
                        for i in range(N_VMS - 1)})
    system.deploy("ghost", pm_ids[0])
    return system, trace


def events(system, t):
    """The scenario's scripted changes before interval ``t`` is played."""
    if t == 1:
        # Cross-DC and intra-DC migrations: blackouts next step.
        return system.apply_schedule({"vm0": "BNG-pm3", "vm1": "BST-pm1",
                                      "vm2": "BCN-pm2", "vm5": "BNG-pm0"})
    if t == 2:
        # A migration whose target then fails: the orphan keeps its
        # pending blackout until it is placed again.
        moved = system.apply_schedule({"vm8": "BST-pm0"})
        system.pm("BST-pm0").fail()
        return moved
    if t == 4:
        system.pm("BST-pm0").repair()
        orphans = [vm for vm in system.vms
                   if vm not in system.placement() and vm != "vm23"]
        return system.apply_schedule({vm: "BCN-pm1" for vm in orphans})
    if t == 5:
        return system.apply_schedule({"vm3": "BST-pm0", "vm4": "BST-pm0"})
    return []


def _f(x):
    return repr(float(x))


def _res(r):
    return [_f(r.cpu), _f(r.mem), _f(r.bw)]


def record_report(report):
    vms = [[vm_id, v.pm_id, v.location,
            [_f(v.load.rps), _f(v.load.bytes_per_req),
             _f(v.load.cpu_time_per_req)],
            _res(v.required), _res(v.given), _f(v.process_rt_s),
            [[src, _f(rt)] for src, rt in v.rt_by_source.items()],
            _f(v.sla_process), _f(v.sla_raw), _f(v.sla),
            _f(v.blackout_fraction), _f(v.queue_len), _f(v.revenue_eur)]
           for vm_id, v in report.vms.items()]
    pms = [[pm_id, p.location, p.on, p.n_vms, _f(p.sum_vm_cpu),
            _f(p.pm_cpu), _f(p.facility_watts), _f(p.energy_wh),
            _f(p.energy_cost_eur)]
           for pm_id, p in report.pms.items()]
    migrations = [[m.vm_id, m.from_pm, m.to_pm, m.from_location,
                   m.to_location, _f(m.seconds), m.inter_dc]
                  for m in report.migrations]
    return {"t": report.t, "interval_s": _f(report.interval_s),
            "vms": vms, "pms": pms, "migrations": migrations,
            "profit": [_f(report.profit.revenue_eur),
                       _f(report.profit.migration_penalty_eur),
                       _f(report.profit.energy_cost_eur)],
            "placement": sorted(report.placement.items()),
            "kpis": [_f(report.mean_sla), _f(report.total_watts),
                     _f(report.total_energy_wh)]}


def record_metrics(m):
    return [m.t, _f(m.interval_s), _f(m.mean_sla), _f(m.total_watts),
            _f(m.total_energy_wh), m.n_pms_on, m.n_migrations,
            m.n_inter_dc_migrations, _f(m.revenue_eur),
            _f(m.migration_penalty_eur), _f(m.energy_cost_eur),
            _f(m.profit_eur), _f(m.total_rps)]


def record_shard(s):
    return [s.location, s.n_pms, s.n_placed, _f(s.sla_sum), _f(s.rps_sum),
            _f(s.revenue_eur), _f(s.migration_penalty_eur),
            _f(s.energy_cost_eur), _f(s.watts_sum), _f(s.energy_wh_sum),
            s.n_pms_on]


def record_state(system):
    return {"last_demands": [[vm, _res(d)]
                             for vm, d in system.last_demands.items()],
            "granted": [[pm.pm_id, [[vm, _res(g)]
                                    for vm, g in pm.granted.items()]]
                        for pm in system.pms],
            "pending": [[vm, _f(s)]
                        for vm, s in system._pending_blackout_s.items()]}


def play(mode):
    """Run the scenario through one stepping entry point, recorded."""
    system, trace = build()
    out = []
    for t in range(T):
        system.apply_tariffs(t)
        migrations = events(system, t)
        if mode == "step":
            report = system.step(trace, t, migrations=migrations)
            out.append({"report": record_report(report),
                        "state": record_state(system)})
            continue
        shf = ShardedFleet.for_system(system, trace)
        if mode == "step_report":
            # Per-field equality with ``step`` is pinned in
            # test_sharding.py; here only the sharded totals.
            report = shf.step_report(trace, t, migrations=migrations)
            rec = record_report(report)
            rec = {"profit": rec["profit"], "kpis": rec["kpis"]}
        else:
            rec = {"metrics": record_metrics(
                shf.step_metrics(trace, t, migrations=migrations))}
        rec["shards"] = [record_shard(s) for s in
                         shf.last_shard_metrics + [shf.last_unplaced]
                         if s is not None]
        out.append(rec)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("mode", MODES)
def test_stepping_matches_golden(golden, mode):
    # Round-trip through JSON so tuples compare as the stored lists.
    got = json.loads(json.dumps(play(mode)))
    want = golden[mode]
    assert len(got) == len(want)
    for t, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{mode}: interval {t} differs from the golden"


def test_scenario_exercises_every_case(golden):
    """The golden covers what it claims to cover."""
    reports = [r["report"] for r in golden["step"]]
    assert any(r["profit"][1] != "0.0" for r in reports)    # penalties
    assert any(any(not p[2] for p in r["pms"]) for r in reports)
    unplaced = [v for r in reports for v in r["vms"] if v[1] == ""]
    assert {v[0] for v in unplaced} >= {"vm23", "vm8"}
    ghost = [v for r in reports for v in r["vms"] if v[0] == "ghost"]
    assert ghost and all(v[7] == [] and v[1] for v in ghost)
    assert any(r["state"]["pending"] for r in golden["step"])
    assert any(v[11] not in ("0.0", "1.0") for r in reports
               for v in r["vms"])                           # partial blackout
    assert len({tuple(r["profit"]) for r in reports}) == T


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({mode: play(mode) for mode in MODES},
                                 separators=(",", ":")) + "\n")
    print(f"regenerated {GOLDEN}")
