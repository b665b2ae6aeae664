"""The workloads, each run as a user runs it: registry specs, default knobs.

A workload takes ``(seed, seconds, recorder)`` and returns a
:class:`Outcome`.  ``seconds`` fixes the amount of work (whole rounds or
query segments) through the nominal cost of one unit on the
reference machine (see README.md), so a ``(seed, seconds)`` pair always
does the same work and every count repeats exactly, traced or not.
``recorder`` is ``None`` in untraced runs; then nothing is wrapped.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

import numpy as np

import checks


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: ``perf_counter`` at the start of the first timed operation.
    first_op: float
    #: Host seconds of each timed operation of the measured phase.
    op_s: List[float]
    #: Median latency of the user-facing operation, ms.
    op_p50_ms: float
    sim_vm_intervals_per_s: float
    profit_eur_per_h: float
    peak_rss_mb: float
    attempted: int
    failed: int
    errors: List[str]
    #: Counts that repeat exactly for a (seed, seconds) pair.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Further figures for the printed table (not gated).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Submit time of every place query in queue order, and the index
    #: range of the open-loop ones (place_mixed only).
    submitted: List[float] = field(default_factory=list)
    open_loop: Tuple[int, int] = (0, 0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def units(seconds: int, unit_s: float, lo: int, hi: int) -> int:
    """How many whole work units fill ``seconds`` at ``unit_s`` each."""
    return max(lo, min(hi, int(round(seconds / unit_s))))


def op_span(recorder, name: str, op: int):
    if recorder is None:
        return nullcontext()
    recorder.set_op(op)
    return recorder.span(name)


def start_phase(recorder) -> float:
    """Mark the end of set-up; returns the phase's start time."""
    if recorder is not None:
        recorder.start_phase()
    return time.perf_counter()


def paused(recorder):
    return recorder.paused() if recorder is not None else nullcontext()


# =============================================================================
# Scheduled scenario rounds (ml_fleet_sched)
# =============================================================================

def _scenario_variant(scenario: str, variant: str, seed: int):
    """Live system, trace and scheduler of one variant run.

    Mirrors the per-variant set-up of ``run_scenario`` for the plain case
    only (shared fleet and training, fleet-derived trace, no failures,
    monitor, sharding or trace scaling, a scheduler call every round) and
    refuses any other variant, so it cannot silently benchmark a set-up
    the program never runs.  Training goes through ``run_scenario``
    itself on the spec with no variants.  The seed picks the fleet and
    trace; the models keep the registry's default training spec, as a
    deployed model set would, so a seed changes the inputs, not the
    program.
    """
    from repro.experiments.engine import REGISTRY, run_scenario

    spec = REGISTRY.spec(scenario, seed=seed)
    if spec.training is not None:
        spec = replace(spec, training=REGISTRY.spec(scenario).training)
    chosen = next(v for v in spec.variants if v.name == variant)
    unsupported = {
        "variant.fleet": chosen.fleet is not None,
        "variant.trace_scale": chosen.trace_scale is not None,
        "variant.training": chosen.training is not None,
        "variant.schedule_every": chosen.schedule_every != 1,
        "variant.sharded": chosen.sharded,
        "spec.failures": spec.failures is not None,
        "spec.horizon": spec.horizon is not None,
        "spec.workload (not fleet-derived)":
            spec.workload is None or spec.workload.kind != "fleet",
    }
    bad = [name for name, is_set in unsupported.items() if is_set]
    if bad:
        raise ValueError(f"{scenario}/{variant}: the benchmark does not "
                         f"mirror {', '.join(bad)}")
    models = None
    if spec.training is not None:
        models = run_scenario(replace(spec, variants=())).models
    system, fleet_trace = spec.fleet.build()
    trace = spec.workload.build(fleet_trace)
    if spec.tariffs is not None:
        system.tariff_schedule = spec.tariffs.build(
            system, trace.n_intervals, trace.interval_s)
    scheduler, monitor = chosen.scheduler.build(models, risk=chosen.risk)
    if monitor is not None:
        raise ValueError(f"{scenario}/{variant}: the benchmark does not "
                         f"mirror a live monitor")
    return system, trace, scheduler


def scheduled_rounds(scenario: str, variant: str, seed: int, rounds: int,
                     recorder) -> Outcome:
    """``rounds`` scheduling rounds of one variant, timed one by one.

    One round is one ``run_simulation`` interval: scheduler call,
    ``apply_schedule`` and the interval's step.  Placement snapshots
    around each round feed the checks and are taken outside the timing.
    """
    from repro.sim.engine import RunHistory, run_simulation
    from repro.sim.metrics import metrics_of

    system, trace, scheduler = _scenario_variant(scenario, variant, seed)
    if recorder is not None:
        scheduler = recorder.wrap("core.scheduler", scheduler)
    history = RunHistory()
    errors: List[str] = []
    op_s: List[float] = []
    snap = checks.snapshot(system)
    placed = set(checks.placement_of(snap))
    first_op = start_phase(recorder)
    for t in range(rounds):
        before = checks.placement_of(snap)
        with op_span(recorder, "round", t):
            start = time.perf_counter()
            run = run_simulation(system, trace, scheduler=scheduler,
                                 start=t, stop=t + 1)
            op_s.append(time.perf_counter() - start)
        report = run.reports[0]
        history.append(report)
        snap = checks.snapshot(system)
        errors += checks.check_placement(snap, placed)
        errors += checks.check_capacity(snap)
        errors += checks.check_migrations(
            before, checks.placement_of(snap), report.n_migrations)
        errors += checks.check_unit_interval(
            f"interval {t} VM SLA", (v.sla for v in report.vms.values()))
    rss = peak_rss_mb()
    summary = history.summary()
    rows = [metrics_of(r).to_row() for r in history.reports]
    errors += checks.check_interval_rows(rows, history.interval_s)
    errors += checks.check_totals(checks.summary_dict(summary), rows)
    n_vms = len(system.vms)
    return Outcome(
        first_op=first_op, op_s=op_s,
        op_p50_ms=1000.0 * statistics.median(op_s),
        sim_vm_intervals_per_s=n_vms * rounds / sum(op_s),
        profit_eur_per_h=summary.avg_eur_per_hour,
        peak_rss_mb=rss, attempted=rounds, failed=0, errors=errors,
        counts={"rounds": rounds, "migrations": summary.n_migrations,
                "vm_intervals": n_vms * rounds},
        extra={"avg_sla": summary.avg_sla, "n_vms": n_vms})


def ml_fleet_sched(seed: int, seconds: int, recorder) -> Outcome:
    # Nominal 7.5 s per round; the spec's default horizon is 6 rounds.
    return scheduled_rounds("ml_large_fleet", "bf_ml", seed,
                            units(seconds, 7.5, 2, 6), recorder)


# =============================================================================
# Placement server: open-loop /place beside /step, then a burst (place_mixed)
# =============================================================================

#: Open-loop arrival rate (queries/s), queries per interval, burst size;
#: README.md derives each from a figure measured on this session.
PLACE_RATE = 200.0
PLACE_PER_STEP = 400
PLACE_BURST = 1500
#: Served answers per interval re-derived by a cold round.
PLACE_SAMPLE = 3
PLACE_WARMUP = 64
SESSION = "bench"


def _await_all(futures, answers: list) -> int:
    """Collect every future's answer; returns how many failed."""
    failed = 0
    for vm, fut in futures:
        try:
            answers.append((vm, fut.result(timeout=60.0)[vm]))
        except Exception:  # any failure counts against the run
            failed += 1
    return failed


def place_mixed(seed: int, seconds: int, recorder) -> Outcome:
    """A served ``follow_the_sun_8dc`` session on the oracle estimator.

    One generator thread (this one) submits ``/place`` queries open-loop
    at :data:`PLACE_RATE`, :data:`PLACE_PER_STEP` per interval, straight
    to the service's micro-batcher; after each interval's queries are
    answered it checks a sample against a cold ``best_fit`` and issues
    ``/step``.  The next interval's arrival schedule starts after the
    step returns, so a step's length never lands on the query latencies,
    while the round it invalidates does (the next interval's first
    queries rebuild it).  A burst of :data:`PLACE_BURST` queries
    submitted at once follows the open-loop phase.
    """
    from repro.core.bestfit import SchedulingRound
    from repro.service.app import PlacementService
    from repro.sim.metrics import metrics_of

    segments = units(seconds, 3.4, 2, 23)
    service = PlacementService()
    try:
        status, body = service.handle("POST", "/sessions", body={
            "name": SESSION, "scenario": "follow_the_sun_8dc",
            "estimator": "oracle", "overrides": {"seed": seed}})
        if status != 200:
            raise RuntimeError(f"session creation failed: {body}")
        session = service.sessions.get(SESSION)
        system = session.system
        vm_ids = sorted(system.vms)
        rng = np.random.default_rng(seed)
        #: Submit time of every query, in queue order: the traced run
        #: pairs them with the batcher's ``Session.place`` calls.
        submitted: List[float] = []

        def submit(vm: str):
            submitted.append(time.perf_counter())
            return vm, service.batcher.submit(SESSION, [vm])

        # Warm-up: the first answers pay one-off costs (code paths, the
        # round's request cache) that a warm server has already paid.
        _await_all([submit(v) for v in vm_ids[:PLACE_WARMUP]], [])
        snap = checks.snapshot(system)
        placed = set(checks.placement_of(snap))

        latency: List[float] = []
        lag: List[float] = []
        step_s: List[float] = []
        errors: List[str] = []
        failed = 0
        batches0 = service.batcher.stats.snapshot()
        first_op = start_phase(recorder)
        for seg in range(segments):
            picks = rng.integers(len(vm_ids), size=PLACE_PER_STEP)
            done = [0.0] * PLACE_PER_STEP
            futures = []
            t0 = time.perf_counter()
            dues = [t0 + i / PLACE_RATE for i in range(PLACE_PER_STEP)]
            for i, k in enumerate(picks):
                now = time.perf_counter()
                if dues[i] > now:
                    time.sleep(dues[i] - now)
                    now = time.perf_counter()
                lag.append(now - dues[i])
                futures.append(submit(vm_ids[k]))
                futures[-1][1].add_done_callback(
                    lambda _f, i=i: done.__setitem__(i, time.perf_counter()))
            seg_answers: list = []
            failed += _await_all(futures, seg_answers)
            latency += [end - due for end, due in zip(done, dues)]
            live = [pm for pm, (down, _c, _u) in snap["hosts"].items()
                    if not down]
            errors += checks.check_place_answers(
                [a for _v, a in seg_answers], live)
            with paused(recorder), session.lock:
                cold = SchedulingRound(system, session.trace, session.t,
                                       session.estimator,
                                       weights=session.weights)
                for j in rng.choice(len(seg_answers), PLACE_SAMPLE,
                                    replace=False):
                    vm, answer = seg_answers[j]
                    ref = cold.best_fit(scope_vms=[vm],
                                        min_gain_eur=session.min_gain_eur)
                    errors += checks.check_place_reference(
                        answer, ref.assignment.get(vm), vm)
            before = checks.placement_of(snap)
            with op_span(recorder, "step", seg):
                start = time.perf_counter()
                status, body = service.handle("POST", "/step",
                                              body={"session": SESSION})
                step_s.append(time.perf_counter() - start)
            if status != 200:
                failed += 1
                errors.append(f"/step {seg} answered {status}: {body}")
                continue
            snap = checks.snapshot(system)
            errors += checks.check_placement(snap, placed)
            errors += checks.check_capacity(snap)
            errors += checks.check_migrations(
                before, checks.placement_of(snap),
                body["reports"][0]["migrations"])
        batches1 = service.batcher.stats.snapshot()

        # Burst: drain a fixed number of queries submitted at once, on a
        # round one query has already rebuilt after the last step.
        _await_all([submit(vm_ids[0])], [])
        picks = rng.integers(len(vm_ids), size=PLACE_BURST)
        with op_span(recorder, "burst", segments):
            start = time.perf_counter()
            futures = [submit(vm_ids[k]) for k in picks]
            burst_answers: list = []
            failed += _await_all(futures, burst_answers)
            burst_s = time.perf_counter() - start
        rss = peak_rss_mb()
        live = [pm for pm, (down, _c, _u) in snap["hosts"].items()
                if not down]
        errors += checks.check_place_answers(
            [a for _v, a in burst_answers], live)
        history = session.history
        rows = [metrics_of(r).to_row() for r in history.reports]
        summary = history.summary()
        errors += checks.check_interval_rows(rows, history.interval_s)
        errors += checks.check_totals(checks.summary_dict(summary), rows)
        for r in history.reports:
            errors += checks.check_unit_interval(
                f"interval {r.t} VM SLA", (v.sla for v in r.vms.values()))
    finally:
        service.close()

    lat_ms = sorted(1000.0 * x for x in latency)
    n_q = len(lat_ms)
    queries = segments * PLACE_PER_STEP + PLACE_BURST
    batches = batches1["batches"] - batches0["batches"]
    requests = batches1["requests"] - batches0["requests"]
    extra = {
        "place_p50_ms": statistics.median(lat_ms),
        "place_samples": n_q,
        "place_burst_qps": PLACE_BURST / burst_s,
        "step_s": statistics.median(step_s),
        "loadgen_lag_p50_ms": 1000.0 * statistics.median(lag),
        "loadgen_lag_max_ms": 1000.0 * max(lag),
        "batch_mean": requests / batches if batches else 0.0,
        "avg_sla": summary.avg_sla,
    }
    # The highest percentile with at least ten samples beyond it.
    if n_q >= 1000:
        extra["place_p99_ms"] = lat_ms[int(math.ceil(0.99 * n_q)) - 1]
    extra["loadgen_lag_p99_ms"] = 1000.0 * sorted(lag)[
        int(math.ceil(0.99 * len(lag))) - 1]
    return Outcome(
        first_op=first_op, op_s=step_s + [burst_s],
        op_p50_ms=statistics.median(lat_ms),
        sim_vm_intervals_per_s=len(system.vms) * segments / sum(step_s),
        profit_eur_per_h=summary.avg_eur_per_hour,
        peak_rss_mb=rss, attempted=queries + segments, failed=failed,
        errors=errors,
        counts={"rounds": segments, "migrations": summary.n_migrations,
                "vm_intervals": len(system.vms) * segments,
                "place_queries": queries},
        extra=extra, submitted=submitted,
        open_loop=(PLACE_WARMUP, PLACE_WARMUP + segments * PLACE_PER_STEP))


WORKLOADS: Dict[str, Callable[[int, int, object], Outcome]] = {
    "ml_fleet_sched": ml_fleet_sched,
    "place_mixed": place_mixed,
}
