"""The benchmark's correctness checks, over plain snapshots of the outputs.

Every check returns a list of error strings (empty means it passed) and
compares the program's output against the benchmark's own recomputation
or against a property the method must have; none compares against a
stored copy of an earlier output.  Snapshots are plain dicts, so the
tamper tests in ``test_perfbench_checks.py`` can corrupt them directly.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

#: Tolerance for sums and capacities: relative, floored at 1 for values
#: near zero.  Float summation order is the only source of difference.
REL_TOL = 1e-9


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def snapshot(system) -> Dict[str, object]:
    """Placement and per-host grants of a live ``MultiDCSystem``.

    ``hosts`` maps each PM to ``(failed, capacity, granted)`` with
    capacity and granted as ``(cpu, mem, bw)``; ``vms`` lists every VM of
    each host in host order, so a VM hosted twice shows up twice.
    """
    hosts = {}
    vms = {}
    for dc in system.datacenters:
        for pm in dc.pms:
            cap = pm.capacity
            cpu = mem = bw = 0.0
            for grant in pm.granted.values():
                cpu += grant.cpu
                mem += grant.mem
                bw += grant.bw
            hosts[pm.pm_id] = (bool(pm.failed), (cap.cpu, cap.mem, cap.bw),
                               (cpu, mem, bw))
            vms[pm.pm_id] = list(pm.vm_ids)
    return {"hosts": hosts, "vms": vms}


def placement_of(snap: Mapping) -> Dict[str, str]:
    return {vm: pm for pm, vm_ids in snap["vms"].items() for vm in vm_ids}


def check_placement(snap: Mapping, expected_vms: Iterable[str]
                    ) -> List[str]:
    """Every expected VM sits on exactly one live host; none is lost."""
    errors = []
    seen: Dict[str, str] = {}
    for pm, vm_ids in snap["vms"].items():
        failed = snap["hosts"][pm][0]
        for vm in vm_ids:
            if failed:
                errors.append(f"{vm} sits on failed host {pm}")
            if vm in seen:
                errors.append(f"{vm} on both {seen[vm]} and {pm}")
            seen[vm] = pm
    missing = set(expected_vms) - set(seen)
    if missing:
        errors.append(f"{len(missing)} VMs dropped from the placement, "
                      f"e.g. {sorted(missing)[0]}")
    return errors


def check_capacity(snap: Mapping) -> List[str]:
    """Grants on each host stay within its capacity, per dimension."""
    errors = []
    for pm, (_failed, cap, used) in snap["hosts"].items():
        for dim, c, u in zip(("cpu", "mem", "bw"), cap, used):
            if u > c and not close(u, c):
                errors.append(f"{pm} grants {u:.6g} {dim} over capacity "
                              f"{c:.6g}")
    return errors


def check_migrations(before: Mapping[str, str], after: Mapping[str, str],
                     reported: int) -> List[str]:
    """The reported migration count equals the placement diff."""
    moved = sum(1 for vm, pm in before.items()
                if vm in after and after[vm] != pm)
    if moved != reported:
        return [f"{reported} migrations reported, placement diff has "
                f"{moved}"]
    return []


def check_interval_rows(rows: Sequence[Mapping[str, float]],
                        interval_s: float) -> List[str]:
    """Per-interval KPI rows: SLA in [0, 1], energy = watts x time,
    profit = revenue - migration penalty - energy cost."""
    errors = []
    for row in rows:
        t = row["t"]
        errors += check_unit_interval(f"interval {t} mean SLA",
                                      [row["mean_sla"]])
        energy = row["total_watts"] * interval_s / 3600.0
        if not close(energy, row["energy_wh"]):
            errors.append(f"interval {t}: energy {row['energy_wh']!r} Wh "
                          f"!= watts x interval {energy!r} Wh")
        parts = (row["revenue_eur"] - row["migration_penalty_eur"]
                 - row["energy_cost_eur"])
        if not close(parts, row["profit_eur"]):
            errors.append(f"interval {t}: profit {row['profit_eur']!r} "
                          f"!= revenue - penalty - energy {parts!r}")
    return errors


def check_unit_interval(label: str, values: Iterable[float]) -> List[str]:
    """Every value (an SLA fulfilment) lies in [0, 1]."""
    bad = [v for v in values if not 0.0 <= v <= 1.0]
    if bad:
        return [f"{label}: {len(bad)} values outside [0, 1], e.g. {bad[0]}"]
    return []


#: Summary field -> per-interval row field it must equal the sum of.
SUMMED = {"total_energy_wh": "energy_wh", "profit_eur": "profit_eur",
          "revenue_eur": "revenue_eur",
          "energy_cost_eur": "energy_cost_eur",
          "migration_penalty_eur": "migration_penalty_eur",
          "n_migrations": "migrations"}


def check_totals(summary: Mapping[str, float],
                 rows: Sequence[Mapping[str, float]]) -> List[str]:
    """Summary totals equal the benchmark's own sums over the rows."""
    errors = []
    if summary["n_intervals"] != len(rows):
        errors.append(f"summary covers {summary['n_intervals']} intervals,"
                      f" series has {len(rows)}")
    for key, col in SUMMED.items():
        total = math.fsum(r[col] for r in rows)
        if not close(summary[key], total):
            errors.append(f"summary {key} {summary[key]!r} != sum of "
                          f"series {total!r}")
    return errors


def check_place_answers(answers: Sequence[Mapping], live_hosts: Iterable[str]
                        ) -> List[str]:
    """Every ``/place`` answer names an existing, unfailed host."""
    live = set(live_hosts)
    bad = [a for a in answers if a.get("pm") not in live]
    if bad:
        return [f"{len(bad)} answers name no live host, e.g. {bad[0]!r}"]
    return []


def check_place_reference(answer: Mapping, reference_pm: Optional[str],
                          vm: str) -> List[str]:
    """A served answer equals the cold ``best_fit`` for the same VM."""
    if answer.get("pm") != reference_pm:
        return [f"{vm}: served {answer.get('pm')!r}, cold best_fit "
                f"{reference_pm!r}"]
    return []


def summary_dict(summary) -> Dict[str, float]:
    """The fields of a ``RunSummary`` the totals check reads."""
    keys = ("n_intervals", "total_energy_wh", "profit_eur", "revenue_eur",
            "energy_cost_eur", "migration_penalty_eur", "n_migrations")
    return {k: getattr(summary, k) for k in keys}
