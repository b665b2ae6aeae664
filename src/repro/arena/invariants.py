"""Machine-checkable simulation laws shared by arena and unit tests.

Every tournament cell (and every fuzzed scenario) is audited against the
same laws the differential test suite enforces, stated once here:

**Report-level** (:func:`check_report`)

* placement legality — every placed VM sits on a known, powered-on host;
  the report's placement map, per-VM ``pm_id`` fields and per-PM VM
  counts agree; unplaced VMs earn nothing and hold nothing;
* grant laws — grants are nonnegative, memory is never granted above
  demand (CPU/bandwidth may *burst* above demand under work-conserving
  sharing, so no such bound exists for them), and with a capacity map
  the per-host grant sums never exceed capacity;
* QoS laws — SLA fields live in [0, 1] and ``sla`` equals
  ``sla_raw * (1 - blackout_fraction)``;
* accounting balance — per-VM revenues sum to the interval's revenue,
  per-PM energy costs sum to its energy cost, energy follows
  ``watts * interval / 3600``, powered-off hosts draw nothing, and a
  migration penalty implies a blacked-out placed VM;
* migration bookkeeping — each event lands its VM on the recorded
  target and ``inter_dc`` matches the locations.

**History-level** (:func:`check_history`) adds cross-interval laws: a
placed VM whose host changed was either migrated (event recorded) or
orphaned by a host failure (old host is down), and the run summary
equals the recomputed per-interval sums.

**Differential** — the batch/scalar agreement contracts from the PR 1-3
test suites live here as importable helpers
(:func:`assert_pack_results_equal`, :func:`assert_problems_equal`,
:func:`assert_system_states_match`) plus :func:`check_spec_parity`,
which replays a scenario spec's physics through the array stepper and
the scalar reference loop and returns the worst report divergence.

**Cross-shard conservation** (:func:`check_shard_conservation`) — the
sharded stepping path (:class:`repro.sim.sharding.ShardedFleet`) must
conserve the global KPIs across its per-DC decomposition: every additive
KPI of the interval (revenue, penalties, energy cost and Wh, watts,
powered-on hosts, aggregate rps) equals the sum over the per-shard
reductions, the mean SLA is the shard SLA mass over the reported VM
count, and no VM sits in two shards (the shard VM sets partition the
placement map).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ..sim.fleet import report_max_abs_diff
from ..sim.machines import Resources
from ..sim.multidc import IntervalReport

__all__ = ["DEFAULT_TOL", "PARITY_TOL", "InvariantViolation",
           "capacities_of", "check_report", "check_history",
           "check_spec_parity", "assert_report_invariants",
           "assert_history_invariants", "assert_invariants",
           "check_shard_conservation", "assert_shard_conservation",
           "EVAL_FIELDS", "assert_pack_results_equal",
           "assert_problems_equal", "assert_system_states_match"]

#: Absolute-ish tolerance for accounting laws (sums over a fleet).
DEFAULT_TOL = 1e-6
#: Tolerance for batch-vs-scalar differential agreement.
PARITY_TOL = 1e-9

_DIMS = ("cpu", "mem", "bw")


class InvariantViolation(AssertionError):
    """One or more simulation laws were broken; the message lists them."""


def capacities_of(system) -> Dict[str, Resources]:
    """``{pm_id: capacity}`` for every host of a ``MultiDCSystem``."""
    return {pm.pm_id: pm.capacity
            for dc in system.datacenters for pm in dc.pms}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


# =============================================================================
# Report-level laws
# =============================================================================

def check_report(report: IntervalReport,
                 capacities: Optional[Mapping[str, Resources]] = None,
                 tol: float = DEFAULT_TOL) -> List[str]:
    """All violations of the per-interval laws (empty list = clean)."""
    v: List[str] = []

    def bad(msg: str) -> None:
        v.append(f"t={report.t}: {msg}")

    placed_per_pm: Dict[str, List[str]] = {}
    any_placed_blackout = False
    revenue_sum = 0.0
    for vm_id, s in report.vms.items():
        if s.vm_id != vm_id:
            bad(f"VM entry {vm_id!r} carries vm_id {s.vm_id!r}")
        for dim in _DIMS:
            if getattr(s.given, dim) < -tol:
                bad(f"VM {vm_id}: negative {dim} grant "
                    f"{getattr(s.given, dim)}")
            if getattr(s.required, dim) < -tol:
                bad(f"VM {vm_id}: negative {dim} demand "
                    f"{getattr(s.required, dim)}")
        # Memory never bursts: granted pages beyond the working set buy
        # nothing, so the allocator grants at most the demand.  (CPU and
        # bandwidth DO burst above demand on under-committed hosts.)
        if s.given.mem > s.required.mem + tol * (1.0 + abs(s.required.mem)):
            bad(f"VM {vm_id}: memory granted above demand "
                f"({s.given.mem} > {s.required.mem})")
        for name in ("sla", "sla_raw", "sla_process"):
            value = getattr(s, name)
            if not -tol <= value <= 1.0 + tol:
                bad(f"VM {vm_id}: {name}={value} outside [0, 1]")
        if not -tol <= s.blackout_fraction <= 1.0 + tol:
            bad(f"VM {vm_id}: blackout_fraction={s.blackout_fraction} "
                f"outside [0, 1]")
        if abs(s.sla - s.sla_raw * (1.0 - s.blackout_fraction)) > tol:
            bad(f"VM {vm_id}: sla {s.sla} != sla_raw*(1-blackout) "
                f"{s.sla_raw * (1.0 - s.blackout_fraction)}")
        if s.revenue_eur < -tol:
            bad(f"VM {vm_id}: negative revenue {s.revenue_eur}")
        revenue_sum += s.revenue_eur
        if s.pm_id:
            pm = report.pms.get(s.pm_id)
            if pm is None:
                bad(f"VM {vm_id} placed on unknown host {s.pm_id!r}")
            elif not pm.on:
                bad(f"VM {vm_id} placed on powered-off host {s.pm_id!r}")
            if report.placement.get(vm_id) != s.pm_id:
                bad(f"VM {vm_id}: placement map says "
                    f"{report.placement.get(vm_id)!r}, stats say "
                    f"{s.pm_id!r}")
            placed_per_pm.setdefault(s.pm_id, []).append(vm_id)
            if s.blackout_fraction > tol:
                any_placed_blackout = True
        else:
            # Unplaced (orphaned) VMs are fully unavailable: no grant,
            # no fulfilled SLA, no revenue, no entry in the placement.
            if s.sla > tol or s.revenue_eur > tol:
                bad(f"unplaced VM {vm_id} earns sla={s.sla} "
                    f"revenue={s.revenue_eur}")
            if any(getattr(s.given, dim) > tol for dim in _DIMS):
                bad(f"unplaced VM {vm_id} holds a grant {s.given}")
            if vm_id in report.placement:
                bad(f"unplaced VM {vm_id} appears in the placement map")

    for vm_id, pm_id in report.placement.items():
        if vm_id not in report.vms:
            bad(f"placement map names unreported VM {vm_id!r}")

    energy_cost_sum = 0.0
    for pm_id, p in report.pms.items():
        hosted = placed_per_pm.get(pm_id, [])
        if p.n_vms != len(hosted):
            bad(f"host {pm_id}: n_vms={p.n_vms} but {len(hosted)} VMs "
                f"report it as their host")
        if p.facility_watts < -tol or p.energy_wh < -tol:
            bad(f"host {pm_id}: negative power/energy")
        if not p.on and p.facility_watts > tol:
            bad(f"powered-off host {pm_id} draws {p.facility_watts} W")
        expected_wh = p.facility_watts * report.interval_s / 3600.0
        if not _close(p.energy_wh, expected_wh, tol):
            bad(f"host {pm_id}: energy_wh {p.energy_wh} != "
                f"watts*interval/3600 {expected_wh}")
        if p.sum_vm_cpu < -tol:
            bad(f"host {pm_id}: negative sum_vm_cpu")
        energy_cost_sum += p.energy_cost_eur
        if capacities is not None and pm_id in capacities:
            cap = capacities[pm_id]
            for dim in _DIMS:
                granted = sum(getattr(report.vms[vm].given, dim)
                              for vm in hosted)
                limit = getattr(cap, dim)
                if granted > limit + tol * (1.0 + limit):
                    bad(f"host {pm_id}: {dim} grants {granted} exceed "
                        f"capacity {limit}")
            if p.pm_cpu > cap.cpu + tol * (1.0 + cap.cpu):
                bad(f"host {pm_id}: pm_cpu {p.pm_cpu} exceeds capacity "
                    f"{cap.cpu}")

    profit = report.profit
    if not _close(revenue_sum, profit.revenue_eur, tol):
        bad(f"VM revenues sum to {revenue_sum}, profit says "
            f"{profit.revenue_eur}")
    if not _close(energy_cost_sum, profit.energy_cost_eur, tol):
        bad(f"host energy costs sum to {energy_cost_sum}, profit says "
            f"{profit.energy_cost_eur}")
    if profit.migration_penalty_eur < -tol:
        bad("negative migration penalty")
    if profit.migration_penalty_eur > tol and not any_placed_blackout:
        bad(f"migration penalty {profit.migration_penalty_eur} charged "
            f"with no blacked-out placed VM")

    for m in report.migrations:
        if m.seconds < 0:
            bad(f"migration {m.vm_id}: negative blackout seconds")
        if m.inter_dc != (m.from_location != m.to_location):
            bad(f"migration {m.vm_id}: inter_dc flag disagrees with "
                f"locations {m.from_location}->{m.to_location}")
        landed = report.vms.get(m.vm_id)
        if landed is None or landed.pm_id != m.to_pm:
            bad(f"migration {m.vm_id} recorded to {m.to_pm!r} but the VM "
                f"reports host "
                f"{landed.pm_id if landed else None!r}")
    return v


# =============================================================================
# History-level laws
# =============================================================================

def check_history(history,
                  capacities: Optional[Mapping[str, Resources]] = None,
                  tol: float = DEFAULT_TOL) -> List[str]:
    """Per-report laws plus cross-interval and summary-balance laws."""
    v: List[str] = []
    for report in history.reports:
        v.extend(check_report(report, capacities=capacities, tol=tol))

    # A placed VM whose host changed was either migrated (its event is in
    # the new interval's report) or orphaned by a host failure and
    # re-placed (then the old host is down in the new interval — the
    # injector runs before the scheduler, so the failure is visible).
    for prev, cur in zip(history.reports, history.reports[1:]):
        moved_events = {m.vm_id: m for m in cur.migrations}
        for vm_id, old_pm in prev.placement.items():
            new_pm = cur.placement.get(vm_id)
            if new_pm is None or new_pm == old_pm:
                continue
            event = moved_events.get(vm_id)
            old_host = cur.pms.get(old_pm)
            old_down = old_host is not None and not old_host.on
            if event is None and not old_down:
                v.append(f"t={cur.t}: VM {vm_id} moved "
                         f"{old_pm}->{new_pm} with no migration event "
                         f"and no failure of {old_pm}")
            elif event is not None and (event.from_pm != old_pm
                                        or event.to_pm != new_pm):
                v.append(f"t={cur.t}: VM {vm_id} event says "
                         f"{event.from_pm}->{event.to_pm} but placement "
                         f"moved {old_pm}->{new_pm}")

    if history.reports:
        s = history.summary()
        checks = (
            ("revenue_eur", s.revenue_eur,
             sum(r.profit.revenue_eur for r in history.reports)),
            ("energy_cost_eur", s.energy_cost_eur,
             sum(r.profit.energy_cost_eur for r in history.reports)),
            ("migration_penalty_eur", s.migration_penalty_eur,
             sum(r.profit.migration_penalty_eur for r in history.reports)),
            ("profit_eur", s.profit_eur,
             sum(r.profit.profit_eur for r in history.reports)),
            ("total_energy_wh", s.total_energy_wh,
             sum(r.total_energy_wh for r in history.reports)),
            ("n_migrations", float(s.n_migrations),
             float(sum(r.n_migrations for r in history.reports))),
            ("avg_sla", s.avg_sla,
             sum(r.mean_sla for r in history.reports)
             / len(history.reports)),
        )
        for name, summary_value, recomputed in checks:
            if not _close(summary_value, recomputed, tol):
                v.append(f"summary {name}={summary_value} but the "
                         f"reports sum to {recomputed}")
    return v


def assert_report_invariants(report, capacities=None,
                             tol: float = DEFAULT_TOL) -> None:
    """Raise :class:`InvariantViolation` listing every broken report law."""
    violations = check_report(report, capacities=capacities, tol=tol)
    if violations:
        raise InvariantViolation(
            f"{len(violations)} invariant violation(s):\n  "
            + "\n  ".join(violations))


def assert_history_invariants(history, capacities=None,
                              tol: float = DEFAULT_TOL) -> None:
    """Raise :class:`InvariantViolation` listing every broken run law."""
    violations = check_history(history, capacities=capacities, tol=tol)
    if violations:
        raise InvariantViolation(
            f"{len(violations)} invariant violation(s):\n  "
            + "\n  ".join(violations))


def assert_invariants(obj, capacities=None, tol: float = DEFAULT_TOL) -> None:
    """Dispatch on report vs history (anything with ``.reports``)."""
    if hasattr(obj, "reports"):
        assert_history_invariants(obj, capacities=capacities, tol=tol)
    else:
        assert_report_invariants(obj, capacities=capacities, tol=tol)


# =============================================================================
# Cross-shard conservation laws
# =============================================================================

def check_shard_conservation(sharded, metrics=None,
                             tol: float = DEFAULT_TOL) -> List[str]:
    """Violations of the sharded-stepping conservation laws (empty = clean).

    ``sharded`` is a :class:`repro.sim.sharding.ShardedFleet` *after* a
    step (its :attr:`last_shard_metrics` hold the per-shard reductions of
    that interval); ``metrics`` is the same interval's global KPIs — an
    :class:`~repro.sim.metrics.IntervalMetrics`, or an
    :class:`~repro.sim.multidc.IntervalReport` (reduced here via
    :func:`~repro.sim.metrics.metrics_of`), or ``None`` to audit only the
    structural laws.  Checked:

    * **partition** — the per-shard VM sets are pairwise disjoint and
      their union is exactly the system's placement map (no VM in two
      shards, none lost);
    * **shape** — one shard per datacenter, matching locations and PM
      counts;
    * **additivity** (with ``metrics``) — every additive global KPI
      equals the sum over shards, profit decomposes as revenue minus
      penalties minus energy cost, and the mean SLA is the shard SLA
      mass over the reported VM count (with unplaced traced VMs diluting
      it, never raising it).
    """
    v: List[str] = []
    shards = sharded.last_shard_metrics
    if not shards:
        return ["no shard metrics recorded (step the fleet first)"]

    # -- partition: no VM in two shards, none lost --------------------------
    seen: Dict[str, int] = {}
    for si, ids in enumerate(sharded.shard_vm_ids()):
        for vm_id in ids:
            if vm_id in seen:
                v.append(f"VM {vm_id!r} appears in shards {seen[vm_id]} "
                         f"and {si}")
            seen[vm_id] = si
    placement = sharded.system.placement()
    if set(seen) != set(placement):
        lost = sorted(set(placement) - set(seen))[:3]
        extra = sorted(set(seen) - set(placement))[:3]
        v.append(f"shard VM union != placement map "
                 f"(lost={lost}, extra={extra})")

    # -- shape: one shard per DC, matching locations and PM counts ----------
    dcs = sharded.system.datacenters
    if len(shards) != len(dcs):
        v.append(f"{len(shards)} shard records for {len(dcs)} DCs")
    for s, dc in zip(shards, dcs):
        if s.location != dc.location:
            v.append(f"shard location {s.location!r} != DC "
                     f"{dc.location!r}")
        if s.n_pms != len(dc.pms):
            v.append(f"shard {s.location}: n_pms={s.n_pms} but the DC "
                     f"has {len(dc.pms)}")

    if metrics is None:
        return v
    if hasattr(metrics, "vms"):  # an IntervalReport
        from ..sim.metrics import metrics_of
        metrics = metrics_of(metrics)

    unplaced = sharded.last_unplaced
    both = shards + ([unplaced] if unplaced is not None else [])

    def total(field: str) -> float:
        return sum(getattr(s, field) for s in both)

    # -- additivity: global KPIs are the shard sums -------------------------
    sums = (
        ("revenue_eur", metrics.revenue_eur, total("revenue_eur")),
        ("migration_penalty_eur", metrics.migration_penalty_eur,
         total("migration_penalty_eur")),
        ("energy_cost_eur", metrics.energy_cost_eur,
         total("energy_cost_eur")),
        ("total_watts", metrics.total_watts, total("watts_sum")),
        ("total_energy_wh", metrics.total_energy_wh,
         total("energy_wh_sum")),
        ("n_pms_on", float(metrics.n_pms_on), total("n_pms_on")),
        ("total_rps", metrics.total_rps, total("rps_sum")),
        ("profit_eur", metrics.profit_eur,
         total("revenue_eur") - total("migration_penalty_eur")
         - total("energy_cost_eur")),
    )
    for name, global_value, shard_sum in sums:
        if not _close(global_value, shard_sum, tol):
            v.append(f"t={metrics.t}: global {name}={global_value} but "
                     f"the shards sum to {shard_sum}")

    n_placed = sum(s.n_placed for s in shards)
    sla_mass = total("sla_sum")
    if unplaced is None:
        expected_sla = sla_mass / n_placed if n_placed else 1.0
        if not _close(metrics.mean_sla, expected_sla, tol):
            v.append(f"t={metrics.t}: mean_sla={metrics.mean_sla} but "
                     f"shard SLA mass gives {expected_sla}")
    elif n_placed:
        # Unplaced traced VMs add 0 to the SLA mass and 1 each to the
        # reported count: they dilute the mean, never raise it.
        ceiling = sla_mass / n_placed
        if metrics.mean_sla > ceiling + tol * (1.0 + abs(ceiling)):
            v.append(f"t={metrics.t}: mean_sla={metrics.mean_sla} "
                     f"exceeds the placed-only ceiling {ceiling}")
    return v


def assert_shard_conservation(sharded, metrics=None,
                              tol: float = DEFAULT_TOL) -> None:
    """Raise :class:`InvariantViolation` listing every broken shard law."""
    violations = check_shard_conservation(sharded, metrics, tol=tol)
    if violations:
        raise InvariantViolation(
            f"{len(violations)} invariant violation(s):\n  "
            + "\n  ".join(violations))


# =============================================================================
# Differential (batch vs scalar) laws
# =============================================================================

#: The numeric fields of a ``PlacementEvaluation`` the scheduling-path
#: differential contract pins (PR 3).
EVAL_FIELDS = ("profit_eur", "revenue_eur", "energy_cost_eur",
               "migration_penalty_eur", "sla", "used_cpu",
               "migration_seconds")


def assert_pack_results_equal(fast, reference,
                              tol: float = PARITY_TOL) -> None:
    """Two ``BestFitResult``s agree: identical assignments/order, and
    per-VM evaluations equal within ``tol`` on every field."""
    assert fast.assignment == reference.assignment
    assert fast.order == reference.order
    assert set(fast.evaluations) == set(reference.evaluations)
    for vm_id, ev in fast.evaluations.items():
        ref = reference.evaluations[vm_id]
        for name in EVAL_FIELDS:
            assert abs(getattr(ev, name) - getattr(ref, name)) < tol, (
                vm_id, name)
        for dim in _DIMS:
            assert abs(getattr(ev.required, dim)
                       - getattr(ref.required, dim)) < tol
            assert abs(getattr(ev.given, dim)
                       - getattr(ref.given, dim)) < tol


def assert_problems_equal(fast, reference) -> None:
    """Two ``SchedulingProblem``s materialize identical rounds."""
    assert [r.vm_id for r in fast.requests] == [r.vm_id for r in
                                                reference.requests]
    for rf, rr in zip(fast.requests, reference.requests):
        assert rf.current_pm == rr.current_pm
        assert rf.current_location == rr.current_location
        assert rf.queue_len == rr.queue_len
        assert list(rf.loads) == list(rr.loads)
        for src, load in rf.loads.items():
            other = rr.loads[src]
            assert load.rps == other.rps
            assert load.bytes_per_req == other.bytes_per_req
            assert load.cpu_time_per_req == other.cpu_time_per_req
    assert [h.pm_id for h in fast.hosts] == [h.pm_id for h in
                                             reference.hosts]
    for hf, hr in zip(fast.hosts, reference.hosts):
        assert hf.location == hr.location
        assert hf.energy_price_eur_kwh == hr.energy_price_eur_kwh
        assert hf.initially_on == hr.initially_on
        assert hf.committed.keys() == hr.committed.keys()
        for vm_id, demand in hf.committed.items():
            assert demand == hr.committed[vm_id]
        assert hf.committed_used_cpu == hr.committed_used_cpu


def assert_system_states_match(sys_a, sys_b,
                               tol: float = PARITY_TOL) -> None:
    """Two stepped systems hold equivalent state: grants, last demands,
    power states and pending migration blackouts (PR 2 contract)."""
    assert set(sys_a.last_demands) == set(sys_b.last_demands)
    for vm_id, da in sys_a.last_demands.items():
        db = sys_b.last_demands[vm_id]
        for dim in _DIMS:
            assert abs(getattr(da, dim) - getattr(db, dim)) < tol
    for dc in sys_a.datacenters:
        for pm in dc.pms:
            other = sys_b.pm(pm.pm_id)
            assert list(pm.granted) == list(other.granted)
            assert pm.on == other.on
            for vm_id, ga in pm.granted.items():
                gb = other.granted[vm_id]
                for dim in _DIMS:
                    assert abs(getattr(ga, dim) - getattr(gb, dim)) < tol
    assert (sys_a._pending_blackout_s.keys()
            == sys_b._pending_blackout_s.keys())


def check_spec_parity(spec, horizon: Optional[int] = None) -> float:
    """Replay a scenario spec's physics on the array and scalar steppers.

    Builds the spec's world twice (``spec.build_world()``) and runs it
    without a scheduler — once through
    :func:`~repro.sim.engine.run_simulation`, once opening each interval
    with the same :func:`~repro.sim.engine.begin_interval` and playing it
    with the scalar reference loop :meth:`MultiDCSystem._step_scalar` —
    and returns the worst
    :func:`~repro.sim.fleet.report_max_abs_diff` across the run.  A
    value above :data:`PARITY_TOL` means the array/scalar contract broke
    on this scenario shape.  Variants are ignored: the parity under
    audit is the physics substrate every variant shares.
    """
    from ..sim.engine import begin_interval, run_simulation

    horizon = spec.horizon if horizon is None else horizon
    system, trace, injector = spec.build_world()
    fast = run_simulation(system, trace, failure_injector=injector,
                          stop=horizon)
    system, trace, injector = spec.build_world()
    scalar = []
    for t in range(len(fast)):
        migrations = begin_interval(system, trace, t, None, injector)
        scalar.append(system._step_scalar(trace, t, migrations=migrations))
    return max((report_max_abs_diff(a, b)
                for a, b in zip(scalar, fast.reports)),
               default=0.0)
