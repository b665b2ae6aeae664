"""Spans at the layer boundaries of ``repro``, recorded from outside.

Traced mode wraps the public entry points of each layer (see
:func:`layer_points`) with a span recorder; untraced mode installs
nothing, so the end-to-end numbers carry no instrumentation at all.
A span is ``(id, parent, name, start_ns, end_ns, op, thread)``: ``parent``
is the innermost open span of the same thread, ``op`` the round or query
the span belongs to.  Spans stay in memory until :meth:`Recorder.write`.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

Span = Tuple[int, int, str, int, int, int, int]


class Recorder:
    """In-memory span and counter store shared by every thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.setup_spans: List[Span] = []
        self.setup_counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        #: The thread that created the recorder (the benchmark's own).
        self.main_thread = threading.get_ident()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._op_seq: Dict[str, int] = defaultdict(int)
        #: While set, wrapped calls run untraced (the benchmark's own
        #: reference computations must not count as the program's work).
        self.is_paused = False

    # -- per-thread state -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: int) -> None:
        """Tag the spans this thread opens from now on with ``op``."""
        self._local.op = op

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _next_op(self, name: str) -> int:
        with self._id_lock:
            op = self._op_seq[name]
            self._op_seq[name] += 1
            return op

    @contextmanager
    def paused(self):
        self.is_paused = True
        try:
            yield
        finally:
            self.is_paused = False

    # -- recording ------------------------------------------------------------
    def _open(self, name: str, new_op: bool) -> tuple:
        local = self._local
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        prev_op = getattr(local, "op", -1)
        if new_op:
            local.op = self._next_op(name)
        sid = self._new_id()
        stack.append((sid, name))
        return sid, parent, prev_op, time.perf_counter_ns()

    def _close(self, name: str, token: tuple) -> None:
        end = time.perf_counter_ns()
        sid, parent, prev_op, start = token
        local = self._local
        self.spans.append((sid, parent, name, start, end,
                           getattr(local, "op", -1), threading.get_ident()))
        self._stack().pop()
        local.op = prev_op

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None,
             new_op: bool = False) -> Callable:
        """``fn`` inside a span; ``count(result, args)`` feeds counters.

        Counters are taken only at the outermost span of a name, so a
        layer calling itself (``super()`` chains, stats methods calling
        plain ones) counts its work once.  With ``new_op`` each call is
        an operation of its own (a query answered on a worker thread):
        it and its children carry the call's sequence number as ``op``.
        """
        rec = self

        def traced(*args, **kwargs):
            if rec.is_paused:
                return fn(*args, **kwargs)
            outer = all(entry[1] != name for entry in rec._stack())
            token = rec._open(name, new_op)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(name, token)
            if outer:
                rec.counts[name + ".calls"] += 1
                if count is not None:
                    for key, value in count(result, args).items():
                        rec.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        token = self._open(name, False)
        try:
            yield
        finally:
            self._close(name, token)
        self.counts[name + ".calls"] += 1

    def start_phase(self) -> None:
        """Close the set-up: later spans and counts are the measured phase.

        Set-up spans and counts move to :attr:`setup_spans` and
        :attr:`setup_counts`, so the phase's figures exclude, say, the
        simulated intervals of a training harvest.
        """
        self.setup_spans, self.spans = self.spans, []
        self.setup_counts, self.counts = self.counts, defaultdict(float)

    # -- reduction ------------------------------------------------------------
    def self_times(self, spans: Optional[List[Span]] = None
                   ) -> Dict[str, float]:
        """Seconds per span name, minus the time of each span's children."""
        spans = self.spans if spans is None else spans
        child_ns: Dict[int, int] = defaultdict(int)
        for sid, parent, _n, start, end, _op, _th in spans:
            if parent:
                child_ns[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for sid, _p, name, start, end, _op, _th in spans:
            out[name] += (end - start - child_ns.get(sid, 0)) / 1e9
        return dict(out)

    def totals(self, spans: Optional[List[Span]] = None) -> Dict[str, float]:
        """Seconds per span name, counting nested same-name spans once."""
        spans = self.spans if spans is None else spans
        names = {s[0]: s[2] for s in spans}
        parents = {s[0]: s[1] for s in spans}
        out: Dict[str, float] = defaultdict(float)
        for sid, parent, name, start, end, _op, _th in spans:
            p = parent
            nested = False
            while p:
                if names.get(p) == name:
                    nested = True
                    break
                p = parents.get(p, 0)
            if not nested:
                out[name] += (end - start) / 1e9
        return dict(out)

    def write(self, path) -> None:
        """Write every span as CSV (ns timestamps relative to the first);
        ``phase`` is 0 for set-up spans and 1 for the measured phase."""
        tagged = ([(0, s) for s in self.setup_spans]
                  + [(1, s) for s in self.spans])
        t0 = min((s[3] for _p, s in tagged), default=0)
        with open(path, "w") as fh:
            fh.write("phase,id,parent,name,start_ns,end_ns,op,thread\n")
            for phase, (sid, parent, name, start, end, op, th) in tagged:
                fh.write(f"{phase},{sid},{parent},{name},{start - t0},"
                         f"{end - t0},{op},{th}\n")


# -- counters read off the wrapped calls --------------------------------------
def _rows(result, args) -> Dict[str, float]:
    sizes = [np.size(a) for a in args[1:] if isinstance(a, np.ndarray)]
    return {"ml.predict_rows": max(sizes, default=0)}


def _hosts(result, args) -> Dict[str, float]:
    return {"core.hosts_scored": args[0].n}


def _migrations(result, args) -> Dict[str, float]:
    return {"sim.migrations": len(result)}


def _queries(result, args) -> Dict[str, float]:
    return {"core.place_queries": len(args[1])}


def _demands(result, args) -> Dict[str, float]:
    return {"core.demand_rows": len(args[1])}


def layer_points():
    """``(owner, attribute, span name, counter[, new_op])`` per entry point.

    Imported lazily so that a checkout without ``src/`` fails at the
    first use, not at import of this module.
    """
    from repro.core.bestfit import SchedulingRound
    from repro.core.estimators import MLEstimator, OracleEstimator
    from repro.core.model import RoundScorer
    from repro.experiments import engine
    from repro.experiments.engine import FleetSpec
    from repro.ml.predictors import ModelSet
    from repro.service.state import Session
    from repro.sim.multidc import MultiDCSystem

    points = [
        (FleetSpec, "build", "workload.fleet_build", None),
        (engine, "train_paper_models", "ml.train", None),
        (SchedulingRound, "__init__", "core.round_snapshot", None),
        (SchedulingRound, "problem", "core.problem_build", None),
        (SchedulingRound, "pack_each", "core.pack_each", _queries),
        (RoundScorer, "evaluate", "core.score", _hosts),
        (RoundScorer, "evaluate_released", "core.score_released", None),
        (RoundScorer, "commit", "core.commit", None),
        (MultiDCSystem, "apply_schedule", "sim.apply_schedule", _migrations),
        (MultiDCSystem, "step", "sim.step", None),
        (Session, "place", "service.place", None, True),
        (Session, "step", "service.session_step", None),
    ]
    for est in (OracleEstimator, MLEstimator):
        points.append((est, "required_resources_batch",
                       "core.demand_estimate", _demands))
    for attr in sorted(vars(ModelSet)):
        if attr.startswith("predict_") and "_batch" in attr:
            points.append((ModelSet, attr, "ml.predict", _rows))
    return points


class Instrumentation:
    """Installs the layer wrappers; :meth:`remove` restores the originals."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> "Instrumentation":
        for owner, attr, name, count, *new_op in layer_points():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.recorder.wrap(name, original, count,
                                                    *new_op))
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def span_cost_ns(n: int = 20000) -> float:
    """Measured cost of one wrapped call over a bare call, in ns."""
    rec = Recorder()
    bare = (lambda: None)
    wrapped = rec.wrap("calibrate", bare)
    t0 = time.perf_counter_ns()
    for _ in range(n):
        bare()
    t1 = time.perf_counter_ns()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter_ns()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)
