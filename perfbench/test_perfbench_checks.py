"""Tamper tests: each benchmark check passes on real output, fails on corruption.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  The outputs
come from a small fleet of the ``follow_the_sun_8dc`` family (8 DCs x 2
PMs, 48 VMs), played through the same calls the workloads make.
"""

import copy
import json

import pytest

import checks
from repro.core.bestfit import SchedulingRound
from repro.core.estimators import OracleEstimator
from repro.experiments.catalog import follow_the_sun_8dc_spec
from repro.sim.engine import RunHistory, run_simulation
from repro.sim.metrics import metrics_of

ROUNDS = 3


@pytest.fixture(scope="module")
def played():
    """A few scheduled rounds with the snapshots the workloads take."""
    spec = follow_the_sun_8dc_spec(n_intervals=ROUNDS, n_dcs=8,
                                   pms_per_dc=2, n_vms=48)
    variant = spec.variants[0]
    system, fleet_trace = spec.fleet.build()
    trace = spec.workload.build(fleet_trace)
    system.tariff_schedule = spec.tariffs.build(
        system, trace.n_intervals, trace.interval_s)
    scheduler, _ = variant.scheduler.build(None)
    history = RunHistory()
    snaps = [checks.snapshot(system)]
    for t in range(ROUNDS):
        history.append(run_simulation(system, trace, scheduler=scheduler,
                                      start=t, stop=t + 1).reports[0])
        snaps.append(checks.snapshot(system))
    rows = [metrics_of(r).to_row() for r in history.reports]
    return dict(system=system, trace=trace, history=history, snaps=snaps,
                rows=rows, summary=checks.summary_dict(history.summary()))


def moved_rounds(played):
    return [t for t, r in enumerate(played["history"].reports)
            if r.n_migrations]


# -- genuine outputs pass -------------------------------------------------------
def test_genuine_output_passes_every_check(played):
    snaps, history = played["snaps"], played["history"]
    placed = checks.placement_of(snaps[0])
    assert moved_rounds(played), "the fixture must migrate something"
    for t, report in enumerate(history.reports):
        assert checks.check_placement(snaps[t + 1], placed) == []
        assert checks.check_capacity(snaps[t + 1]) == []
        assert checks.check_migrations(checks.placement_of(snaps[t]),
                                       checks.placement_of(snaps[t + 1]),
                                       report.n_migrations) == []
    assert checks.check_interval_rows(played["rows"],
                                      played["trace"].interval_s) == []
    assert checks.check_totals(played["summary"], played["rows"]) == []


# -- corrupted outputs fail -----------------------------------------------------
def test_dropped_vm_fails_placement(played):
    snap = copy.deepcopy(played["snaps"][-1])
    placed = checks.placement_of(played["snaps"][0])
    pm = next(pm for pm, vms in snap["vms"].items() if vms)
    snap["vms"][pm].pop()
    assert checks.check_placement(snap, placed)


def test_vm_on_two_hosts_fails_placement(played):
    snap = copy.deepcopy(played["snaps"][-1])
    pms = [pm for pm, vms in snap["vms"].items() if vms]
    snap["vms"][pms[1]].append(snap["vms"][pms[0]][0])
    assert checks.check_placement(snap, [])


def test_vm_on_failed_host_fails_placement(played):
    snap = copy.deepcopy(played["snaps"][-1])
    pm = next(pm for pm, vms in snap["vms"].items() if vms)
    _failed, cap, used = snap["hosts"][pm]
    snap["hosts"][pm] = (True, cap, used)
    assert checks.check_placement(snap, [])


@pytest.mark.parametrize("dim", [0, 1, 2])
def test_grant_over_capacity_fails(played, dim):
    snap = copy.deepcopy(played["snaps"][-1])
    pm = next(iter(snap["hosts"]))
    failed, cap, used = snap["hosts"][pm]
    used = list(used)
    used[dim] = cap[dim] * (1 + 1e-6)
    snap["hosts"][pm] = (failed, cap, tuple(used))
    assert checks.check_capacity(snap)


def test_miscounted_migrations_fail(played):
    t = moved_rounds(played)[0]
    before = checks.placement_of(played["snaps"][t])
    after = checks.placement_of(played["snaps"][t + 1])
    reported = played["history"].reports[t].n_migrations
    assert checks.check_migrations(before, after, reported - 1)
    assert checks.check_migrations(before, before, reported)


@pytest.mark.parametrize("key", ["total_energy_wh", "profit_eur",
                                 "n_migrations"])
def test_perturbed_summary_total_fails(played, key):
    summary = dict(played["summary"])
    summary[key] = summary[key] * (1 + 1e-6) + 1
    assert checks.check_totals(summary, played["rows"])


def test_perturbed_interval_energy_fails(played):
    rows = copy.deepcopy(played["rows"])
    rows[0]["energy_wh"] *= 1 + 1e-6
    assert checks.check_interval_rows(rows, played["trace"].interval_s)


def test_perturbed_interval_profit_fails(played):
    rows = copy.deepcopy(played["rows"])
    rows[-1]["profit_eur"] += 1e-3
    assert checks.check_interval_rows(rows, played["trace"].interval_s)


@pytest.mark.parametrize("sla", [-0.01, 1.01, float("nan")])
def test_sla_out_of_range_fails(played, sla):
    rows = copy.deepcopy(played["rows"])
    rows[0]["mean_sla"] = sla
    assert checks.check_interval_rows(rows, played["trace"].interval_s)
    assert checks.check_unit_interval("vm sla", [0.5, sla])


# -- placement answers ------------------------------------------------------------
@pytest.fixture(scope="module")
def answered(played):
    """Warm ``pack_each`` answers and cold ``best_fit`` references."""
    system, trace = played["system"], played["trace"]
    t = ROUNDS - 1
    vms = sorted(system.vms)[:6]
    warm = SchedulingRound(system, trace, t, OracleEstimator())
    answers = {vm: {"pm": r.assignment.get(vm)}
               for vm, r in warm.pack_each(vms).items()}
    cold = SchedulingRound(system, trace, t, OracleEstimator())
    refs = {vm: cold.best_fit(scope_vms=[vm]).assignment.get(vm)
            for vm in vms}
    live = [pm for pm, (down, _c, _u)
            in checks.snapshot(system)["hosts"].items() if not down]
    return answers, refs, live


def test_genuine_answers_pass(answered):
    answers, refs, live = answered
    assert checks.check_place_answers(list(answers.values()), live) == []
    for vm, answer in answers.items():
        assert checks.check_place_reference(answer, refs[vm], vm) == []


def test_wrong_answer_fails_reference(answered):
    answers, refs, live = answered
    vm = next(iter(answers))
    other = next(pm for pm in live if pm != refs[vm])
    assert checks.check_place_reference({"pm": other}, refs[vm], vm)


def test_answer_naming_no_live_host_fails(answered):
    answers, _refs, live = answered
    bad = list(answers.values()) + [{"pm": "no-such-host"}]
    assert checks.check_place_answers(bad, live)
    assert checks.check_place_answers([{"pm": None}], live)
    # A host that has failed since: answers naming it are no longer live.
    named = next(iter(answers.values()))["pm"]
    still_live = [pm for pm in live if pm != named]
    assert checks.check_place_answers(list(answers.values()), still_live)


def test_traced_count_that_differs_from_untraced_fails(tmp_path, monkeypatch):
    import run
    import workloads

    monkeypatch.setattr(run, "RESULTS", str(tmp_path))
    args = run.parse_args(["--workload", "place_mixed", "--seed", "1",
                           "--seconds", "45", "--trace", "1"])
    counts = {"rounds": 13, "migrations": 33737}
    with open(run.result_path(args, ".json"), "w") as fh:
        json.dump({"phase_s": 15.0, "counts": counts}, fh)
    out = workloads.Outcome(
        first_op=0.0, op_s=[15.0], op_p50_ms=2.9,
        sim_vm_intervals_per_s=2500.0, profit_eur_per_h=484.5,
        peak_rss_mb=183.0, attempted=1, failed=0, errors=[],
        counts=dict(counts))
    run.compare_with_untraced(args, out, 16.0, 0.4)
    assert out.errors == []
    out.counts["migrations"] += 1
    run.compare_with_untraced(args, out, 16.0, 0.4)
    assert len(out.errors) == 1 and "migrations" in out.errors[0]
