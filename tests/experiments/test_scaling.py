"""Tests for the scalability experiment."""

import pytest

from repro.experiments.scaling import (ScalingPoint, format_scaling,
                                       run_scaling, synthetic_fleet_problem,
                                       synthetic_fleet_system)
from repro.sim.engine import run_simulation
from repro.sim.fleet import report_max_abs_diff


@pytest.fixture(scope="module")
def result():
    return run_scaling(sizes=((4, 1), (8, 2)))


class TestScaling:
    def test_points_match_sizes(self, result):
        assert [(p.n_vms, p.n_pms) for p in result.points] == [(4, 4),
                                                               (8, 8)]

    def test_timings_positive(self, result):
        for p in result.points:
            assert p.flat_ms > 0.0
            assert p.hierarchical_ms > 0.0

    def test_cost_grows_with_size(self, result):
        assert result.flat_cost_ratio() > 1.0

    def test_offered_hosts_bounded(self, result):
        for p in result.points:
            assert p.global_hosts_offered <= p.n_pms

    def test_format_renders(self, result):
        text = format_scaling(result)
        assert "flat ms" in text
        assert str(result.points[0].n_vms) in text


class TestSyntheticFleet:
    def test_shape_and_variety(self):
        problem = synthetic_fleet_problem(n_hosts=12, n_vms=20, seed=1)
        assert len(problem.hosts) == 12
        assert len(problem.requests) == 20
        # Fleet spans locations, power states and migration cases.
        assert len({h.location for h in problem.hosts}) > 1
        assert any(not h.initially_on for h in problem.hosts)
        assert any(r.current_pm is not None for r in problem.requests)
        assert any(r.current_pm is None for r in problem.requests)

    def test_deterministic_per_seed(self):
        a = synthetic_fleet_problem(n_hosts=6, n_vms=8, seed=2)
        b = synthetic_fleet_problem(n_hosts=6, n_vms=8, seed=2)
        assert ([r.aggregate_load.rps for r in a.requests]
                == [r.aggregate_load.rps for r in b.requests])
        assert ([r.current_pm for r in a.requests]
                == [r.current_pm for r in b.requests])

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            synthetic_fleet_problem(n_hosts=0, n_vms=5)


class TestSyntheticFleetSystem:
    def test_shape_and_variety(self):
        system, trace = synthetic_fleet_system(n_hosts=8, n_vms=20,
                                               n_intervals=6, seed=2)
        assert len(system.pms) == 8
        assert len(system.vms) == 20
        assert trace.n_intervals == 6
        assert len(system.placement()) == 20
        assert len({dc.location for dc in system.datacenters}) == 4
        # Mixed single- and dual-region client mixes.
        per_vm = {}
        for vm, _src in trace.series:
            per_vm[vm] = per_vm.get(vm, 0) + 1
        assert set(per_vm.values()) == {1, 2}

    def test_deterministic_per_seed(self):
        (_, a) = synthetic_fleet_system(n_hosts=8, n_vms=6, n_intervals=4,
                                        seed=3)
        (_, b) = synthetic_fleet_system(n_hosts=8, n_vms=6, n_intervals=4,
                                        seed=3)
        for key in a.series:
            assert (a.series[key].rps == b.series[key].rps).all()

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            synthetic_fleet_system(n_hosts=2, n_vms=5, n_intervals=4)


class TestFleetSimulation:
    def test_small_round_trip(self):
        """A whole run of the synthetic fleet steps like the scalar loop."""
        fast = run_simulation(*synthetic_fleet_system(
            n_hosts=8, n_vms=20, n_intervals=4, seed=4))
        system, trace = synthetic_fleet_system(n_hosts=8, n_vms=20,
                                               n_intervals=4, seed=4)
        scalar = []
        for t in range(trace.n_intervals):
            system.apply_tariffs(t)
            scalar.append(system._step_scalar(trace, t))
        assert len(fast) == len(scalar) == 4
        assert max(report_max_abs_diff(a, b)
                   for a, b in zip(fast.reports, scalar)) < 1e-9
        assert 0.0 < fast.summary().avg_sla <= 1.0
