"""Tests for the MultiDCSystem state machine and interval accounting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.profit import PriceBook
from repro.sim.datacenter import PAPER_ENERGY_PRICES, build_datacenter
from repro.sim.machines import Resources, VirtualMachine
from repro.sim.multidc import MultiDCSystem, proportional_allocation
from repro.sim.network import paper_network_model
from repro.workload.traces import SourceSeries, WorkloadTrace


def res(cpu=0.0, mem=0.0, bw=0.0):
    return Resources(cpu=cpu, mem=mem, bw=bw)


def make_system(n_dcs=2, pms_per_dc=2, n_vms=3):
    locs = ["BCN", "BST", "BNG", "BRS"][:n_dcs]
    dcs = [build_datacenter(loc, pms_per_dc) for loc in locs]
    vms = {f"vm{i}": VirtualMachine(vm_id=f"vm{i}") for i in range(n_vms)}
    return MultiDCSystem(
        datacenters=dcs, vms=vms, network=paper_network_model(),
        prices=PriceBook(energy_price_eur_kwh=PAPER_ENERGY_PRICES))


def flat_trace(vm_ids, sources, n=4, rps=5.0, interval_s=600.0):
    trace = WorkloadTrace(interval_s=interval_s)
    for vm_id in vm_ids:
        for src in sources:
            trace.add(vm_id, src, SourceSeries(
                rps=np.full(n, rps), bytes_per_req=np.full(n, 4000.0),
                cpu_time_per_req=np.full(n, 0.05)))
    return trace


class TestAllocation:
    def test_burst_lone_vm_gets_whole_machine(self):
        grants = proportional_allocation(res(400, 4096, 1000),
                                         {"a": res(100, 512, 100)})
        assert grants["a"].cpu == pytest.approx(400.0)
        assert grants["a"].mem == pytest.approx(512.0)  # mem: demand only

    def test_burst_pro_rata(self):
        grants = proportional_allocation(
            res(400, 4096, 1000),
            {"a": res(100, 0, 0), "b": res(300, 0, 0)})
        assert grants["a"].cpu == pytest.approx(100.0)
        assert grants["b"].cpu == pytest.approx(300.0)

    def test_overcommit_scales_down(self):
        grants = proportional_allocation(
            res(400, 4096, 1000),
            {"a": res(400, 0, 0), "b": res(400, 0, 0)})
        assert grants["a"].cpu == pytest.approx(200.0)
        assert grants["b"].cpu == pytest.approx(200.0)

    def test_vm_cap_respected_and_spare_redistributed(self):
        grants = proportional_allocation(
            res(400, 4096, 1000),
            {"a": res(100, 0, 0), "b": res(100, 0, 0)},
            caps={"a": res(120, 4096, 1000), "b": res(400, 4096, 1000)})
        assert grants["a"].cpu <= 120.0 + 1e-9
        # b picks up what a could not take.
        assert grants["b"].cpu > 200.0

    def test_mem_overcommit_proportional(self):
        grants = proportional_allocation(
            res(400, 1000, 1000),
            {"a": res(0, 800, 0), "b": res(0, 800, 0)})
        assert grants["a"].mem == pytest.approx(500.0)

    def test_empty(self):
        assert proportional_allocation(res(400, 4096, 1000), {}) == {}

    def test_total_never_exceeds_capacity(self):
        rng = np.random.default_rng(0)
        cap = res(400, 4096, 1000)
        for _ in range(50):
            demands = {f"v{i}": res(rng.uniform(0, 300),
                                    rng.uniform(0, 2000),
                                    rng.uniform(0, 800))
                       for i in range(rng.integers(1, 6))}
            grants = proportional_allocation(cap, demands)
            total = res()
            for g in grants.values():
                total = total + g
            assert total.fits_in(cap, slack=1e-6)


class TestPlacementOps:
    def test_deploy_and_placement(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        assert system.placement() == {"vm0": "BCN-pm0"}
        assert system.location_of_vm("vm0") == "BCN"

    def test_deploy_twice_rejected(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        with pytest.raises(ValueError, match="already placed"):
            system.deploy("vm0", "BCN-pm1")

    def test_deploy_unknown_vm(self):
        system = make_system()
        with pytest.raises(KeyError):
            system.deploy("ghost", "BCN-pm0")

    def test_deploy_powers_host_on(self):
        system = make_system()
        system.pm("BCN-pm0").set_power(False)
        system.deploy("vm0", "BCN-pm0")
        assert system.pm("BCN-pm0").on

    def test_dc_and_pm_lookups(self):
        system = make_system()
        assert system.dc("BST").location == "BST"
        with pytest.raises(KeyError):
            system.dc("XXX")
        with pytest.raises(KeyError):
            system.pm("nope")
        assert system.dc_of_pm("BST-pm1").location == "BST"

    def test_duplicate_locations_rejected(self):
        dcs = [build_datacenter("BCN", 1), build_datacenter("BCN", 1)]
        with pytest.raises(ValueError, match="duplicate DC"):
            MultiDCSystem(datacenters=dcs, vms={},
                          network=paper_network_model())


class TestApplySchedule:
    def test_migration_event_fields(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        events = system.apply_schedule({"vm0": "BST-pm0"})
        assert len(events) == 1
        ev = events[0]
        assert ev.from_location == "BCN" and ev.to_location == "BST"
        assert ev.inter_dc
        assert ev.seconds > 3.0  # 4 GB over 10 Gbps

    def test_intra_dc_migration_flagged(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        events = system.apply_schedule({"vm0": "BCN-pm1"})
        assert not events[0].inter_dc
        assert events[0].seconds < 3.5

    def test_noop_schedule_no_events(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        assert system.apply_schedule({"vm0": "BCN-pm0"}) == []

    def test_swap_between_hosts(self):
        """Simultaneous moves must not transiently overflow hosts."""
        system = make_system()
        system.deploy("vm0", "BCN-pm0", grant=res(300, 100, 100))
        system.deploy("vm1", "BCN-pm1", grant=res(300, 100, 100))
        events = system.apply_schedule({"vm0": "BCN-pm1",
                                        "vm1": "BCN-pm0"})
        assert len(events) == 2
        placement = system.placement()
        assert placement["vm0"] == "BCN-pm1"
        assert placement["vm1"] == "BCN-pm0"

    def test_auto_power_off_empty_hosts(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        system.apply_schedule({"vm0": "BST-pm0"})
        assert not system.pm("BCN-pm0").on
        assert system.pm("BST-pm0").on

    def test_unknown_vm_rejected_before_mutation(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        with pytest.raises(KeyError):
            system.apply_schedule({"vm0": "BST-pm0", "ghost": "BCN-pm0"})
        # Nothing moved.
        assert system.placement() == {"vm0": "BCN-pm0"}

    def test_unknown_host_rejected(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        with pytest.raises(KeyError):
            system.apply_schedule({"vm0": "nope"})

    def test_failed_target_rejected_before_mutation(self):
        """A schedule moving a VM onto a failed host raises and leaves
        placement, grants, power states and pending blackouts as they
        were (the movers used to be evicted first and then lost)."""
        from repro.experiments.scaling import synthetic_hierarchical_fleet
        system, trace = synthetic_hierarchical_fleet(
            n_dcs=2, pms_per_dc=3, n_vms=8, sources_per_vm=2)
        system.step(trace, 0)
        placement = system.placement()
        mover = sorted(placement)[0]
        # A pending blackout from an earlier, valid move.
        other = next(pm.pm_id for pm in system.pms
                     if pm.pm_id != placement[mover])
        system.apply_schedule({mover: other})
        victim = next(pm for pm in system.pms
                      if pm.pm_id != other and pm.n_vms)
        victim.fail()

        def state():
            return (system.placement(),
                    {pm.pm_id: dict(pm.granted) for pm in system.pms},
                    {pm.pm_id: (pm.on, pm.failed) for pm in system.pms},
                    dict(system._pending_blackout_s))

        before = state()
        assert before[3]
        with pytest.raises(ValueError, match="failed PM"):
            system.apply_schedule({mover: victim.pm_id})
        assert state() == before


class TestStep:
    def test_report_totals_consistent(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        system.deploy("vm1", "BCN-pm0")
        system.deploy("vm2", "BST-pm0")
        trace = flat_trace(["vm0", "vm1", "vm2"], ["BCN", "BST"])
        report = system.step(trace, 0)
        assert set(report.vms) == {"vm0", "vm1", "vm2"}
        assert report.total_watts > 0
        assert report.total_energy_wh == pytest.approx(
            report.total_watts * 600.0 / 3600.0)
        assert 0.0 <= report.mean_sla <= 1.0
        assert report.profit.revenue_eur > 0.0

    def test_migration_blackout_reduces_sla(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        trace = flat_trace(["vm0"], ["BCN"])
        base = system.step(trace, 0).vms["vm0"]
        events = system.apply_schedule({"vm0": "BST-pm0"})
        hit = system.step(trace, 1, migrations=events).vms["vm0"]
        assert hit.blackout_fraction > 0.0
        assert hit.sla < hit.sla_raw
        # Next interval the penalty is gone.
        clean = system.step(trace, 2).vms["vm0"]
        assert clean.blackout_fraction == 0.0

    def test_migration_penalty_charged_once(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        trace = flat_trace(["vm0"], ["BCN"])
        events = system.apply_schedule({"vm0": "BST-pm0"})
        r1 = system.step(trace, 0, migrations=events)
        r2 = system.step(trace, 1)
        assert r1.profit.migration_penalty_eur > 0.0
        assert r2.profit.migration_penalty_eur == 0.0

    def test_off_hosts_draw_nothing(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        system.pm("BST-pm0").set_power(False)
        system.pm("BST-pm1").set_power(False)
        trace = flat_trace(["vm0"], ["BCN"])
        report = system.step(trace, 0)
        assert report.pms["BST-pm0"].facility_watts == 0.0

    def test_energy_cost_uses_local_tariff(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        trace = flat_trace(["vm0"], ["BCN"])
        report = system.step(trace, 0)
        bcn = report.pms["BCN-pm0"]
        expected = (bcn.facility_watts * 600.0 / 3600.0 / 1000.0
                    * PAPER_ENERGY_PRICES["BCN"])
        assert bcn.energy_cost_eur == pytest.approx(expected)

    def test_remote_source_sees_transport_latency(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        trace = flat_trace(["vm0"], ["BCN", "BST"])
        stats = system.step(trace, 0).vms["vm0"]
        assert stats.rt_by_source["BST"] == pytest.approx(
            stats.rt_by_source["BCN"] + 0.09 - 0.0005, abs=1e-6)

    def test_contention_lowers_sla(self):
        system = make_system()
        for i in range(3):
            system.deploy(f"vm{i}", "BCN-pm0")
        heavy = flat_trace(["vm0", "vm1", "vm2"], ["BCN"], rps=40.0)
        light = flat_trace(["vm0", "vm1", "vm2"], ["BCN"], rps=2.0)
        sla_heavy = system.step(heavy, 0).mean_sla
        sla_light = system.step(light, 0).mean_sla
        assert sla_heavy < sla_light

    def test_last_demands_populated(self):
        system = make_system()
        system.deploy("vm0", "BCN-pm0")
        trace = flat_trace(["vm0"], ["BCN"])
        system.step(trace, 0)
        assert "vm0" in system.last_demands
        assert system.last_demands["vm0"].cpu > 0
