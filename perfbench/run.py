"""End-to-end and per-layer benchmark of the multi-DC scheduler.

Run from the repository root::

    python3 perfbench/run.py --workload place_mixed --seed 1 \\
        --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` wraps each layer's entry points in spans and reports the
per-layer metrics instead (see README.md).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Span traces and result files land in
``perfbench/results/``.
"""

import time

#: Set-up is timed from here: interpreter start-up is all that precedes it.
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

try:
    import repro  # noqa: E402,F401
except ImportError as exc:
    sys.exit(f"perfbench: cannot import repro from {sys.path[0]}: {exc}")

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

#: name -> unit of every end-to-end metric (untraced runs).
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "sim_vm_intervals_per_s": "VM-intervals/s",
    "profit_eur_per_h": "EUR/h",
    "peak_rss_mb": "MB",
}

#: name -> (unit, span or counter it is read from, how) of every
#: per-layer metric (traced runs).  ``self``: span self time;
#: ``total``: inclusive span time; ``count``: a counter.
SPAN_METRICS = {
    "core.scheduler_s": ("s", "core.scheduler", "total"),
    "core.scheduler_calls": ("count", "core.scheduler.calls", "count"),
    "core.round_snapshot_s": ("s", "core.round_snapshot", "self"),
    "core.round_snapshots": ("count", "core.round_snapshot.calls", "count"),
    "core.problem_build_s": ("s", "core.problem_build", "self"),
    "core.problems": ("count", "core.problem_build.calls", "count"),
    "core.score_s": ("s", "core.score", "self"),
    "core.score_calls": ("count", "core.score.calls", "count"),
    "core.hosts_scored": ("count", "core.hosts_scored", "count"),
    "core.commit_s": ("s", "core.commit", "self"),
    "core.commit_calls": ("count", "core.commit.calls", "count"),
    "core.demand_estimate_s": ("s", "core.demand_estimate", "self"),
    "core.pack_each_s": ("s", "core.pack_each", "self"),
    "core.place_queries": ("count", "core.place_queries", "count"),
    "ml.predict_s": ("s", "ml.predict", "self"),
    "ml.predict_rows": ("count", "ml.predict_rows", "count"),
    "ml.train_s": ("s", "ml.train", "total"),
    "workload.fleet_build_s": ("s", "workload.fleet_build", "self"),
    "sim.apply_schedule_s": ("s", "sim.apply_schedule", "self"),
    "sim.migrations": ("count", "sim.migrations", "count"),
    "sim.step_s": ("s", "sim.step", "self"),
    "sim.step_calls": ("count", "sim.step.calls", "count"),
    "service.place_s": ("s", "service.place", "total"),
    "service.session_step_s": ("s", "service.session_step", "total"),
}

#: Per-layer metrics of the set-up; all others cover the measured phase.
SETUP_METRICS = ("ml.train_s", "workload.fleet_build_s")

#: Per-layer metrics derived from several spans or from the workload.
DERIVED = {
    "core.moves_per_evaluation": "ratio",
    "service.queue_wait_ms": "ms",
    "service.batch_mean": "count",
    "service.queries_per_round_build": "ratio",
    "service.burst_qps": "1/s",
    "loadgen.lag_ms": "ms",
    "trace.phase_s": "s",
    "trace.span_overhead_s": "s",
}

#: Spans the benchmark opens around its own timed operations.
OP_SPANS = ("round", "step", "burst")


def blas_threads():
    """OpenBLAS's thread count, as numpy's bundled library reports it."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_path(args, suffix: str) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    return os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                        f"-s{args.seconds}{suffix}")


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def per_layer(rec: tracing.Recorder, out: workloads.Outcome,
              span_ns: float):
    """Every per-layer metric of a traced run (0 where a layer is idle).

    Set-up layers read the set-up spans, all others the measured phase.
    """
    self_s = rec.self_times()
    total_s = rec.totals()
    counts = rec.counts
    phase = {"self": self_s, "total": total_s, "count": counts}
    setup = {"self": rec.self_times(rec.setup_spans),
             "total": rec.totals(rec.setup_spans),
             "count": rec.setup_counts}
    metrics = {}
    for name, (unit, key, how) in SPAN_METRICS.items():
        source = setup if name in SETUP_METRICS else phase
        metrics[name] = (source[how].get(key, 0.0), unit)
    evaluations = counts.get("core.score.calls", 0.0)
    moves = counts.get("sim.migrations", 0.0)
    place_starts = sorted(s[3] for s in rec.setup_spans + rec.spans
                          if s[2] == "service.place")
    lo, hi = out.open_loop
    waits = []
    if len(place_starts) == len(out.submitted):
        waits = [(place_starts[i] / 1e9 - out.submitted[i]) * 1000.0
                 for i in range(lo, hi)]
    elif out.submitted:
        print(f"warning: {len(place_starts)} Session.place calls for "
              f"{len(out.submitted)} queries; queue wait not paired")
    main = rec.main_thread
    worker_rounds = sum(1 for s in rec.spans
                        if s[2] == "core.round_snapshot" and s[6] != main)
    places = counts.get("service.place.calls", 0.0)
    derived = {
        "core.moves_per_evaluation": moves / evaluations if evaluations
        else 0.0,
        "service.queue_wait_ms": median_or_zero(waits),
        "service.batch_mean": out.extra.get("batch_mean", 0.0),
        "service.queries_per_round_build": places / worker_rounds
        if worker_rounds else 0.0,
        "service.burst_qps": out.extra.get("place_burst_qps", 0.0),
        "loadgen.lag_ms": out.extra.get("loadgen_lag_p99_ms", 0.0),
        "trace.phase_s": sum(total_s.get(n, 0.0) for n in OP_SPANS),
        "trace.span_overhead_s": len(rec.spans) * span_ns / 1e9,
    }
    metrics.update({name: (derived[name], unit)
                    for name, unit in DERIVED.items()})
    return metrics


def print_layer_table(rec: tracing.Recorder) -> None:
    for title, spans, counts in (("set-up", rec.setup_spans,
                                  rec.setup_counts),
                                 ("measured phase", rec.spans, rec.counts)):
        self_s = rec.self_times(spans)
        total_s = rec.totals(spans)
        print(f"{title:28s} {'self s':>10s} {'total s':>10s} {'calls':>9s}")
        for name in sorted(total_s, key=lambda n: -self_s.get(n, 0.0)):
            calls = counts.get(name + ".calls", 0)
            print(f"  {name:26s} {self_s.get(name, 0.0):10.4f} "
                  f"{total_s[name]:10.4f} {calls:9.0f}")
        for key in sorted(counts):
            if not key.endswith(".calls"):
                print(f"  count {key:38s} {counts[key]:.0f}")


#: Run-to-run spread of a measured phase on the reference machine, as a
#: share of its median (README.md, Steadiness): a traced phase further
#: from the untraced one than this plus the span cost is reported.
PHASE_SPREAD = 0.25


def compare_with_untraced(args, out, traced_phase: float,
                          overhead_s: float) -> None:
    """Compare a traced run with the last untraced run of its seed.

    Every count both runs report must repeat exactly; a count that
    differs is a check failure.  The traced phase is printed against the
    untraced one with the span-cost estimate; a difference beyond the
    span cost plus :data:`PHASE_SPREAD` is reported, not failed, since
    two processes on one machine differ by that much untraced too.
    """
    path = result_path(args, ".json")
    if not os.path.exists(path):
        print(f"no untraced result at {path}; tracing overhead vs an "
              f"untraced run not available")
        return
    with open(path) as fh:
        base = json.load(fh)
    phase = base["phase_s"]
    diff = traced_phase / phase - 1.0
    allowed = overhead_s / phase + PHASE_SPREAD
    print(f"tracing overhead: traced phase {traced_phase:.4f} s vs "
          f"untraced {phase:.4f} s ({100.0 * diff:+.1f} %); span cost "
          f"estimate {overhead_s:.4f} s; "
          f"{'within' if abs(diff) <= allowed else 'OUTSIDE'} span cost + "
          f"run-to-run spread ({100.0 * allowed:.1f} %)")
    for key, value in out.counts.items():
        same = base["counts"].get(key) == value
        print(f"count {key}: traced {value} untraced "
              f"{base['counts'].get(key)} {'same' if same else 'DIFFERS'}")
        if not same:
            out.errors.append(f"count {key} is {value} traced but "
                              f"{base['counts'].get(key)} untraced")
            print(f"CHECK FAILED: {out.errors[-1]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    recorder = None
    instrumentation = None
    if args.trace:
        recorder = tracing.Recorder()
        instrumentation = tracing.Instrumentation(recorder).install()
    try:
        out = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                 recorder)
    finally:
        if instrumentation is not None:
            instrumentation.remove()
    setup_s = out.first_op - PROCESS_START
    phase_s = sum(out.op_s)

    for err in out.errors[:20]:
        print(f"CHECK FAILED: {err}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds}"
          f" trace {args.trace}: {len(out.op_s)} timed ops, phase "
          f"{phase_s:.4f} s, set-up {setup_s:.4f} s")
    print(f"  python {sys.version.split()[0]}, numpy {numpy.__version__}, "
          f"OpenBLAS threads {blas_threads()}, cpus {os.cpu_count()}")
    for key, value in sorted({**out.counts, **out.extra}.items()):
        print(f"  {key:28s} {value}")

    if args.trace:
        span_ns = tracing.span_cost_ns()
        metrics = per_layer(recorder, out, span_ns)
        recorder.write(result_path(args, "-trace.csv"))
        print_layer_table(recorder)
        compare_with_untraced(args, out, metrics["trace.phase_s"][0],
                              metrics["trace.span_overhead_s"][0])
    else:
        values = {"setup_s": setup_s, "op_p50_ms": out.op_p50_ms,
                  "sim_vm_intervals_per_s": out.sim_vm_intervals_per_s,
                  "profit_eur_per_h": out.profit_eur_per_h,
                  "peak_rss_mb": out.peak_rss_mb}
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END.items()}
        with open(result_path(args, ".json"), "w") as fh:
            json.dump({"phase_s": phase_s, "counts": out.counts,
                       "metrics": {k: v for k, (v, _u) in metrics.items()}},
                      fh, indent=1, sort_keys=True)
    for name, (value, _unit) in metrics.items():
        if not math.isfinite(value):
            out.errors.append(f"metric {name} is {value}")
            print(f"CHECK FAILED: {out.errors[-1]}")
    print(json.dumps({
        "correct": not out.errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
