"""Warm server state: trained-model registry and live placement sessions.

The offline pipeline rebuilds fleet, trace and models on every invocation
and exits; the service keeps them resident:

* :class:`ModelRegistry` — a lock-guarded cache of trained
  :class:`~repro.ml.predictors.ModelSet` instances, keyed by the scenario
  engine's :func:`~repro.experiments.engine._training_key` (every knob
  that shapes a training run), so two sessions or scenario runs with
  identical training specs share one model set and train at most once.
  Safe for concurrent readers: all ``ModelSet`` predict paths are pure
  (fit-time-only mutation), so a published model set never changes.
* :class:`Session` — one live fleet: a :class:`MultiDCSystem`, its
  :class:`WorkloadTrace`, a clock ``t``, an estimator, and the cached
  :class:`~repro.core.bestfit.SchedulingRound` of the current interval.
  Placement queries share that round (request cache, host base, one
  vectorized ``required_resources_batch`` call); mutations (:meth:`step`)
  go through the session lock and invalidate it.
* :class:`SessionStore` — named sessions, created from registered
  scenario specs through the world builder and training key of
  :func:`repro.experiments.engine.run_scenario`.

Per-query placement semantics are pinned to the offline path: a ``place``
for VM ``v`` at interval ``t`` returns exactly what
``SchedulingRound(system, trace, t, estimator).best_fit(scope_vms=[v])``
returns — the differential tests assert bit-identical assignments.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.bestfit import SchedulingRound
from ..core.estimators import (Estimator, MLEstimator, ObservedEstimator,
                               OracleEstimator)
from ..core.model import ObjectiveWeights
from ..experiments.engine import (REGISTRY, ScenarioSpec, TrainingSpec,
                                  _train, _training_key)
from ..ml.predictors import ModelSet
from ..sim.engine import RunHistory, run_simulation
from ..sim.monitor import Monitor
from ..sim.multidc import MultiDCSystem
from ..workload.traces import WorkloadTrace

__all__ = ["ModelRegistry", "Session", "SessionStore",
           "session_from_scenario"]


class ModelRegistry:
    """Lock-guarded cache of trained model sets, keyed on training knobs.

    ``get_or_train`` is the single entry point: a hit returns the shared
    ``(ModelSet, Monitor)`` pair immediately; a miss trains under a
    per-key lock, so concurrent misses for the same key train exactly
    once while different keys train in parallel.  ``seed`` publishes an
    already-trained set (scenario runs feed their models back so later
    sessions reuse them warm).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._models: Dict[str, Tuple[ModelSet, Optional[Monitor]]] = {}
        self._inflight: Dict[str, threading.Lock] = {}
        self.trainings = 0  # cache misses that actually trained

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._models)

    def key_of(self, training: TrainingSpec, spec: ScenarioSpec) -> str:
        return _training_key(training, spec)

    def get(self, training: TrainingSpec, spec: ScenarioSpec
            ) -> Optional[Tuple[ModelSet, Optional[Monitor]]]:
        with self._lock:
            return self._models.get(_training_key(training, spec))

    def seed(self, training: TrainingSpec, spec: ScenarioSpec,
             models: ModelSet, monitor: Optional[Monitor] = None) -> None:
        """Publish an externally trained model set under its key."""
        with self._lock:
            self._models.setdefault(_training_key(training, spec),
                                    (models, monitor))

    def get_or_train(self, training: TrainingSpec, spec: ScenarioSpec,
                     base_trace: Optional[WorkloadTrace] = None
                     ) -> Tuple[ModelSet, Optional[Monitor]]:
        key = _training_key(training, spec)
        with self._lock:
            hit = self._models.get(key)
            if hit is not None:
                return hit
            gate = self._inflight.setdefault(key, threading.Lock())
        with gate:
            # Double-check: another thread may have finished training
            # this key while we waited on its gate.
            with self._lock:
                hit = self._models.get(key)
                if hit is not None:
                    return hit
            models, monitor = _train(training, spec, base_trace)
            with self._lock:
                self._models[key] = (models, monitor)
                self._inflight.pop(key, None)
                self.trainings += 1
            return models, monitor


@dataclass
class Session:
    """One live fleet the server answers placement queries against.

    All access to the mutable pieces (``t``, the system's placement, the
    cached round) goes through :attr:`lock`; the micro-batcher and the
    HTTP handlers both take it.  ``place`` is a pure query — it never
    commits the returned assignment — while :meth:`step` plays each
    interval through :func:`repro.sim.engine.run_simulation`, packing
    the whole fleet on the warm round.
    """

    name: str
    system: MultiDCSystem
    trace: WorkloadTrace
    estimator: Estimator
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    min_gain_eur: float = 0.0
    schedule_on_step: bool = True
    t: int = 0
    history: RunHistory = field(default_factory=RunHistory)
    lock: threading.RLock = field(default_factory=threading.RLock,
                                  repr=False)
    created_at: float = field(default_factory=time.time)
    #: Placement queries answered (for /report and the healthz counters).
    n_place_queries: int = 0
    _round: Optional[SchedulingRound] = field(default=None, repr=False)

    # -- warm round ----------------------------------------------------------
    def current_round(self) -> SchedulingRound:
        """The (cached) scheduling round of the current interval.

        Shared by every placement query until :meth:`invalidate_round` —
        the request cache, host base and the one vectorized
        ``required_resources_batch`` call amortize across the round.
        Caller must hold :attr:`lock`.
        """
        if self.t >= self.trace.n_intervals:
            raise IndexError(
                f"session {self.name!r} exhausted its trace "
                f"(t={self.t}, n_intervals={self.trace.n_intervals})")
        if self._round is None:
            if isinstance(self.estimator, ObservedEstimator):
                self.estimator.refresh()
            self._round = SchedulingRound(self.system, self.trace, self.t,
                                          self.estimator,
                                          weights=self.weights)
        return self._round

    def invalidate_round(self) -> None:
        """Drop the warm round cache.  Caller must hold :attr:`lock`."""
        self._round = None

    # -- queries --------------------------------------------------------------
    def place(self, vm_ids: Sequence[str],
              round_: Optional[SchedulingRound] = None) -> Dict[str, dict]:
        """Score a placement for each VM against the warm round.

        Each VM is packed as its own single-VM problem — identical to the
        offline ``best_fit(scope_vms=[vm_id])`` — so concurrent queries
        for different VMs cannot observe each other's tentative commits.
        Caller must hold :attr:`lock` (the micro-batcher does).
        """
        if round_ is None:
            round_ = self.current_round()
        for vm_id in vm_ids:
            if vm_id not in self.system.vms:
                raise KeyError(f"unknown VM {vm_id!r} in session "
                               f"{self.name!r}")
        results = round_.pack_each(vm_ids,
                                   min_gain_eur=self.min_gain_eur)
        out: Dict[str, dict] = {}
        for vm_id, result in results.items():
            ev = result.evaluations.get(vm_id)
            entry = {"pm": result.assignment.get(vm_id), "t": self.t}
            if ev is not None:
                entry.update(profit_eur=ev.profit_eur, sla=ev.sla,
                             migration_seconds=ev.migration_seconds)
            out[vm_id] = entry
        self.n_place_queries += len(out)
        return out

    # -- mutation --------------------------------------------------------------
    def _pack(self, system: MultiDCSystem, trace: WorkloadTrace,
              t: int) -> Optional[Dict[str, str]]:
        """The session's scheduler: pack the full fleet on the warm round."""
        round_ = self.current_round()
        problem = round_.problem()
        if not problem.requests:
            return None
        return round_.pack(problem,
                           min_gain_eur=self.min_gain_eur).assignment

    def step(self, rounds: int = 1, schedule: Optional[bool] = None
             ) -> List[dict]:
        """Play ``rounds`` intervals, each through :func:`run_simulation`.

        With scheduling on (the default), each interval packs the full
        fleet through the warm round and applies the assignment before
        the interval is played — the paper's 10-minute decision loop,
        running inside the server.  A step that would run past the end
        of the trace raises ``IndexError`` before it plays anything.
        """
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if schedule is None:
            schedule = self.schedule_on_step
        reports: List[dict] = []
        with self.lock:
            if self.t + rounds > self.trace.n_intervals:
                raise IndexError(
                    f"session {self.name!r} exhausted its trace "
                    f"(t={self.t}, rounds={rounds}, "
                    f"n_intervals={self.trace.n_intervals})")
            for _ in range(rounds):
                run = run_simulation(
                    self.system, self.trace,
                    scheduler=self._pack if schedule else None,
                    start=self.t, stop=self.t + 1)
                report = run.reports[0]
                self.history.append(report)
                self.t += 1
                self.invalidate_round()
                reports.append({
                    "t": report.t,
                    "mean_sla": report.mean_sla,
                    "total_watts": report.total_watts,
                    "pms_on": report.n_pms_on,
                    "migrations": report.n_migrations,
                    "profit_eur": report.profit.profit_eur,
                })
        return reports

    # -- report ----------------------------------------------------------------
    def report(self) -> dict:
        with self.lock:
            placement = self.system.placement()
            out = {
                "session": self.name,
                "t": self.t,
                "n_intervals": self.trace.n_intervals,
                "n_vms": len(self.system.vms),
                "n_pms": sum(len(dc.pms)
                             for dc in self.system.datacenters),
                "n_placed": len(placement),
                "estimator": type(self.estimator).__name__,
                "place_queries": self.n_place_queries,
                "uptime_s": time.time() - self.created_at,
            }
            if len(self.history):
                s = self.history.summary()
                out["summary"] = {
                    "avg_sla": s.avg_sla,
                    "avg_watts": s.avg_watts,
                    "avg_eur_per_hour": s.avg_eur_per_hour,
                    "n_migrations": s.n_migrations,
                }
            return out


def session_from_scenario(name: str, scenario: str,
                          registry: ModelRegistry,
                          estimator: str = "ml",
                          min_gain_eur: float = 0.0,
                          **overrides) -> Session:
    """Build a live session from a registered scenario spec.

    The world comes from :meth:`ScenarioSpec.build_world`, like every
    scenario run's (served sessions play no failures, so the injector is
    dropped).  For ``estimator='ml'`` the training spec resolves through
    ``registry.get_or_train``, so every session with the same training
    knobs shares one warm model set.
    """
    spec = REGISTRY.spec(scenario, **overrides)
    if spec.fleet is None or spec.workload is None:
        raise ValueError(f"scenario {scenario!r} has no fleet/workload "
                         f"(analysis-only scenarios cannot be served)")
    system, trace, _injector = spec.build_world()
    if estimator == "oracle":
        est: Estimator = OracleEstimator()
    elif estimator == "ml":
        if spec.training is None:
            raise ValueError(f"scenario {scenario!r} has no training "
                             f"spec; use estimator='oracle'")
        base = trace if spec.training.workload is None else None
        models, _monitor = registry.get_or_train(spec.training, spec, base)
        mode = str(spec.params.get("sla_mode", "direct"))
        est = MLEstimator(models, sla_mode=mode)
    else:
        raise ValueError(f"unknown estimator {estimator!r} "
                         f"(expected 'ml' or 'oracle')")
    return Session(name=name, system=system, trace=trace, estimator=est,
                   min_gain_eur=min_gain_eur)


class SessionStore:
    """Lock-guarded name -> :class:`Session` map."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._sessions: Dict[str, Session] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def get(self, name: str) -> Session:
        with self._lock:
            session = self._sessions.get(name)
        if session is None:
            raise KeyError(f"unknown session {name!r} "
                           f"(active: {self.names()})")
        return session

    def add(self, session: Session) -> Session:
        with self._lock:
            if session.name in self._sessions:
                raise ValueError(f"session {session.name!r} already exists")
            self._sessions[session.name] = session
        return session

    def create(self, name: str, scenario: str, registry: ModelRegistry,
               estimator: str = "ml", min_gain_eur: float = 0.0,
               **overrides) -> Session:
        # Build outside the store lock (training can take a while); the
        # add below still guarantees name uniqueness.
        session = session_from_scenario(name, scenario, registry,
                                        estimator=estimator,
                                        min_gain_eur=min_gain_eur,
                                        **overrides)
        return self.add(session)

    def remove(self, name: str) -> None:
        with self._lock:
            self._sessions.pop(name, None)
