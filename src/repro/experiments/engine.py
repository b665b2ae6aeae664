"""Declarative scenario engine: one spec-driven runner for every experiment.

Before PR 4 every experiment was its own module, hand-building systems,
traces, schedulers and report strings.  This module turns a scenario into
*data*:

* :class:`ScenarioSpec` — a declarative description of one experiment:
  fleet shape (:class:`FleetSpec`), workload generators and flash crowds
  (:class:`WorkloadSpec`), failure schedule (:class:`FailureSpec`),
  time-varying tariffs (:class:`TariffSpec`), model training
  (:class:`TrainingSpec`), and one or more :class:`VariantSpec` runs
  (scheduler config, per-variant overrides) over a common horizon.
* :func:`run_scenario` — the single array-native runner: it builds the
  system and trace once per variant, wires training, tariffs and failure
  injection, and drives :func:`repro.sim.engine.run_simulation` with the
  batch defaults (``FleetState`` stepping, ``SchedulingRound`` packing),
  emitting a structured :class:`ScenarioResult`.
* :class:`ScenarioResult` — per-interval metric arrays, aggregate KPIs
  and phase timings per variant, with JSON/CSV serialization replacing
  per-module report formatting.
* :class:`ScenarioRegistry` / :data:`REGISTRY` — named scenario
  factories; adding a scenario is a ~30-line spec, not a new module.

The legacy ``run_*``/``format_*`` entry points are thin wrappers over
this engine (golden-parity tests pin their outputs byte-for-byte), and
``python -m repro.cli scenarios run <name>`` runs any registered spec.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..core.estimators import (Estimator, MLEstimator, ObservedEstimator,
                               OracleEstimator)
from ..core.hierarchical import HierarchicalScheduler
from ..core.model import ObjectiveWeights
from ..core.online import OnlineLearningScheduler
from ..core.policies import (bf_ml_scheduler, bf_overbook_scheduler,
                             bf_scheduler, exact_scheduler,
                             follow_the_load_scheduler, oracle_scheduler,
                             static_scheduler)
from ..ml.calibration import RiskConfig
from ..ml.predictors import ModelSet
from ..sim.engine import RunHistory, RunSummary, Scheduler, run_simulation
from ..sim.failures import FailureInjector
from ..sim.metrics import SERIES_FIELDS, InMemoryMetricsSink
from ..sim.monitor import Monitor
from ..sim.multidc import MultiDCSystem
from ..sim.tariffs import (TariffSchedule, flat_tariff, solar_tariff,
                           time_of_use_tariff)
from ..workload.libcn import SERVICE_PROFILES, LiBCNGenerator
from ..workload.traces import WorkloadTrace
from .scenario import (ScenarioConfig, intra_dc_system, intra_dc_trace,
                       multidc_system, multidc_trace, single_dc_system)
from .training import train_paper_models

__all__ = ["FleetSpec", "WorkloadSpec", "SchedulerSpec", "TrainingSpec",
           "FailureSpec", "TariffSpec", "VariantSpec", "ScenarioSpec",
           "VariantResult", "ScenarioResult", "ScenarioRegistry",
           "REGISTRY", "ANALYSES", "run_scenario",
           "format_scenario_result", "json_safe"]


# =============================================================================
# Spec layer
# =============================================================================

@dataclass(frozen=True)
class FleetSpec:
    """How to build the (mutable) :class:`MultiDCSystem` of a run.

    ``kind`` selects a builder; ``params`` are its keyword arguments:

    ===========================  ===============================================
    kind                         builder
    ===========================  ===============================================
    ``multidc``                  :func:`repro.experiments.scenario.multidc_system`
                                 (pass ``config``)
    ``intra_dc``                 :func:`~repro.experiments.scenario.intra_dc_system`
    ``single_dc``                :func:`~repro.experiments.scenario.single_dc_system`
    ``synthetic_fleet``          :func:`repro.experiments.scaling.synthetic_fleet_system`
                                 (also yields the trace)
    ``synthetic_hierarchical``   :func:`repro.experiments.scaling.synthetic_hierarchical_fleet`
                                 (also yields the trace)
    ===========================  ===============================================
    """

    kind: str = "multidc"
    config: Optional[ScenarioConfig] = None
    params: Mapping[str, object] = field(default_factory=dict)

    def build(self) -> Tuple[MultiDCSystem, Optional[WorkloadTrace]]:
        """A fresh ``(system, trace-or-None)`` pair (runs mutate state)."""
        if self.kind == "multidc":
            if self.params:
                raise ValueError("fleet kind 'multidc' is configured via "
                                 "'config', not 'params'")
            return multidc_system(self.config or ScenarioConfig()), None
        if self.config is not None:
            raise ValueError(f"fleet kind {self.kind!r} is configured via "
                             f"'params', not 'config'")
        if self.kind == "intra_dc":
            return intra_dc_system(**self.params), None
        if self.kind == "single_dc":
            return single_dc_system(**self.params), None
        if self.kind == "synthetic_fleet":
            from .scaling import synthetic_fleet_system
            return self._build_synthetic(synthetic_fleet_system)
        if self.kind == "synthetic_hierarchical":
            from .scaling import synthetic_hierarchical_fleet
            return self._build_synthetic(synthetic_hierarchical_fleet)
        raise ValueError(f"unknown fleet kind {self.kind!r}")

    def _build_synthetic(self, builder):
        # The trace is deterministic given the params, so later builds
        # of the same spec (other variants, training harvests) reuse the
        # first one instead of re-synthesizing it; the system is always
        # built fresh (runs mutate placement state).
        cached = self.__dict__.get("_trace_cache")
        system, trace = builder(trace=cached, **self.params)
        if cached is None:
            object.__setattr__(self, "_trace_cache", trace)
        return system, trace


@dataclass(frozen=True)
class WorkloadSpec:
    """How to generate the :class:`WorkloadTrace` driving a run.

    Kinds: ``multidc`` (timezone-shifted Li-BCN per region, flash crowds
    via ``config.flash_crowds``), ``intra_dc`` (local clients only),
    ``home`` (all load at one region — the de-location overload),
    ``rotating`` (dominant region walks around the world — Figure 5) and
    ``fleet`` (the trace produced by a ``synthetic_*`` fleet builder).
    """

    kind: str = "multidc"
    config: Optional[ScenarioConfig] = None
    params: Mapping[str, object] = field(default_factory=dict)

    def build(self, fleet_trace: Optional[WorkloadTrace]) -> WorkloadTrace:
        if self.kind == "fleet":
            if fleet_trace is None:
                raise ValueError(
                    "workload kind 'fleet' needs a trace-producing fleet")
            return fleet_trace
        if self.kind == "multidc":
            return multidc_trace(self.config or ScenarioConfig())
        if self.kind == "intra_dc":
            return intra_dc_trace(**self.params)
        if self.kind == "home":
            config = self.config or ScenarioConfig()
            rng = np.random.default_rng(config.seed)
            gen = LiBCNGenerator(rng=rng, interval_s=config.interval_s)
            profiles = {vm_id: config.profile_of(vm_id)
                        for vm_id in config.vm_ids()}
            return gen.trace(profiles, [self.params["home"]],
                             config.n_intervals,
                             scale=self.params.get("scale", 1.0))
        if self.kind == "rotating":
            p = dict(self.params)
            rng = np.random.default_rng(p.pop("seed", 7))
            gen = LiBCNGenerator(rng=rng)
            profile = SERVICE_PROFILES[p.pop("profile")]
            return gen.rotating_trace(p.pop("vm_id"), profile,
                                      list(p.pop("locations")), **p)
        raise ValueError(f"unknown workload kind {self.kind!r}")


@dataclass(frozen=True)
class SchedulerSpec:
    """Which scheduler drives a variant, and with what knobs.

    Kinds: ``static``, ``follow_the_load``, ``bf``, ``bf_ob``, ``bf_ml``,
    ``oracle``, ``hierarchical`` (``params['estimator']`` in
    ``{'oracle', 'ml'}``), ``online`` and ``exact`` (branch-and-bound
    optimum per round; ``params['max_nodes']`` bounds the search and
    ``params['fallback']`` controls the Best-Fit fallback on budget
    exhaustion).  ``bf``/``bf_ob``/``online`` create a live
    :class:`Monitor` (seeded by ``params['monitor_seed']``) that is also
    attached to the run, exactly as the legacy experiments wired it.
    """

    kind: str = "static"
    weights: Optional[ObjectiveWeights] = None
    min_gain_eur: Optional[float] = None
    params: Mapping[str, object] = field(default_factory=dict)

    def build(self, models: Optional[ModelSet],
              risk: Optional[RiskConfig] = None
              ) -> Tuple[Optional[Scheduler], Optional[Monitor]]:
        """The engine-ready scheduler plus its live monitor (if any).

        ``risk`` (threaded from ``VariantSpec.risk``) turns on
        calibrated, variance-penalized ranking for the ML-estimator
        kinds (``bf_ml``, ``hierarchical`` with ``estimator='ml'``).
        """
        # Knobs a kind cannot honor fail loudly (same convention as the
        # registry) instead of silently running with defaults.
        unsupported = []
        if (self.weights is not None
                and self.kind in ("static", "follow_the_load", "online")):
            unsupported.append("weights")
        if (self.min_gain_eur is not None
                and self.kind in ("static", "bf", "bf_ob", "online",
                                  "exact")):
            unsupported.append("min_gain_eur")
        if (risk is not None
                and not (self.kind == "bf_ml"
                         or (self.kind == "hierarchical"
                             and self.params.get("estimator") == "ml"))):
            unsupported.append("risk")
        if unsupported:
            raise ValueError(
                f"scheduler kind {self.kind!r} does not support "
                f"{', '.join(unsupported)}")
        p = dict(self.params)
        if self.kind == "static":
            return static_scheduler(), None
        if self.kind == "follow_the_load":
            if self.min_gain_eur is None:
                return follow_the_load_scheduler(), None
            return follow_the_load_scheduler(self.min_gain_eur), None
        if self.kind == "bf":
            monitor = Monitor(rng=np.random.default_rng(p["monitor_seed"]))
            return bf_scheduler(monitor, weights=self.weights), monitor
        if self.kind == "bf_ob":
            monitor = Monitor(rng=np.random.default_rng(p["monitor_seed"]))
            return bf_overbook_scheduler(
                monitor, overbook=p.get("overbook", 2.0),
                weights=self.weights), monitor
        if self.kind == "bf_ml":
            if models is None:
                raise ValueError("bf_ml variant needs trained models "
                                 "(add a TrainingSpec)")
            return bf_ml_scheduler(
                models, sla_mode=p.get("sla_mode", "direct"),
                weights=self.weights,
                min_gain_eur=self.min_gain_eur or 0.0,
                risk=risk), None
        if self.kind == "oracle":
            return oracle_scheduler(
                weights=self.weights,
                min_gain_eur=self.min_gain_eur or 0.0), None
        if self.kind == "hierarchical":
            est_kind = p.get("estimator", "oracle")
            if est_kind == "oracle":
                estimator: Estimator = OracleEstimator()
            elif est_kind == "ml":
                if models is None:
                    raise ValueError("hierarchical/ml variant needs models")
                estimator = MLEstimator(models,
                                        sla_mode=p.get("sla_mode", "direct"),
                                        risk=risk)
            else:
                raise ValueError(f"unknown estimator {est_kind!r}")
            kwargs = dict(
                estimator=estimator,
                weights=self.weights or ObjectiveWeights(),
                sla_move_threshold=p.get("sla_move_threshold", 0.95),
                max_offers_per_dc=p.get("max_offers_per_dc", 2))
            if self.min_gain_eur is not None:
                kwargs["min_gain_eur"] = self.min_gain_eur
            return HierarchicalScheduler(**kwargs), None
        if self.kind == "online":
            monitor = Monitor(rng=np.random.default_rng(p["monitor_seed"]))
            return OnlineLearningScheduler(
                monitor=monitor, bootstrap=models,
                retrain_every=p.get("retrain_every", 12),
                window=p.get("window", 2000),
                min_samples=p.get("min_samples", 120)), monitor
        if self.kind == "exact":
            return exact_scheduler(
                weights=self.weights,
                max_nodes=p.get("max_nodes", 200_000),
                fallback=p.get("fallback", True)), None
        raise ValueError(f"unknown scheduler kind {self.kind!r}")


@dataclass(frozen=True)
class TrainingSpec:
    """Exploration harvest + Table I model training for ML variants.

    ``fleet``/``workload`` default to the scenario's own; overriding them
    trains on a different shape (Figure 6 trains without the flash crowd
    so the models must generalize to the unseen surge).  ``bagging > 0``
    trains each predictor as a bootstrap ensemble of that many members —
    the variance-reduction knob for large candidate sets — and
    ``calibrate`` (default) fits split-conformal residual quantiles per
    predictor, the error budget ``VariantSpec(risk=...)`` spends.

    Two training specs are interchangeable for model reuse only when
    *every* knob matches (:func:`run_scenario` keys its per-run cache on
    all of them), so e.g. a bagged and an unbagged variant can never
    silently share a model set.
    """

    scales: Tuple[float, ...] = (0.5, 1.0, 2.0)
    seed: int = 7
    fleet: Optional[FleetSpec] = None
    workload: Optional[WorkloadSpec] = None
    bagging: int = 0
    calibrate: bool = True


@dataclass(frozen=True)
class FailureSpec:
    """Deterministic host-failure injection (one injector per variant)."""

    fail_prob: float = 0.02
    repair_intervals: int = 3
    max_down: int = 1
    seed: int = 0

    def build(self) -> FailureInjector:
        return FailureInjector(
            rng=np.random.default_rng(self.seed),
            fail_prob_per_interval=self.fail_prob,
            repair_intervals=self.repair_intervals,
            max_down=self.max_down)


@dataclass(frozen=True)
class TariffSpec:
    """Time-varying electricity tariffs applied to every variant.

    ``base_eur_kwh`` defaults to each built DC's current price.
    ``tz_spread`` spreads synthetic locations evenly around the 24-hour
    clock (the follow-the-sun substrate for fleets whose locations have
    no real timezone).  ``interval_s`` overrides the trace interval for
    the tariff clock only — a time-compression knob, so a short synthetic
    run can still sweep a full solar day.
    """

    kind: str = "solar"
    base_eur_kwh: Optional[Mapping[str, float]] = None
    params: Mapping[str, object] = field(default_factory=dict)
    interval_s: Optional[float] = None
    tz_spread: bool = False

    def build(self, system: MultiDCSystem, n_intervals: int,
              trace_interval_s: float) -> TariffSchedule:
        base = (dict(self.base_eur_kwh) if self.base_eur_kwh is not None
                else {dc.location: dc.energy_price_eur_kwh
                      for dc in system.datacenters})
        if self.kind == "flat":
            return flat_tariff(base, n_intervals=n_intervals)
        kwargs = dict(self.params)
        kwargs["interval_s"] = (self.interval_s if self.interval_s
                                is not None else trace_interval_s)
        if self.tz_spread:
            locs = [dc.location for dc in system.datacenters]
            kwargs["tz_offsets_h"] = {
                loc: 24.0 * i / len(locs) for i, loc in enumerate(locs)}
        if self.kind == "solar":
            return solar_tariff(base, n_intervals, **kwargs)
        if self.kind == "time_of_use":
            return time_of_use_tariff(base, n_intervals, **kwargs)
        raise ValueError(f"unknown tariff kind {self.kind!r}")


@dataclass(frozen=True)
class VariantSpec:
    """One run of the scenario (its own fresh system and scheduler).

    Optional overrides: ``fleet`` (a different system shape — the
    de-location comparison pits one vs several DCs), ``trace_scale``
    (replay the shared trace at another request rate — Figure 8's load
    sweep), ``training`` (a per-variant model set — the harvest-size
    ablation), ``schedule_every`` (rounds between scheduler calls),
    ``risk`` (a :class:`~repro.ml.calibration.RiskConfig`: calibrated,
    variance-penalized ranking for ML-estimator schedulers) and
    ``sharded`` (step intervals per-DC through
    :class:`~repro.sim.sharding.ShardedFleet`; with a streaming sink the
    run reduces each interval straight to KPIs, holding peak memory flat
    in horizon length).
    """

    name: str
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    fleet: Optional[FleetSpec] = None
    trace_scale: Optional[float] = None
    training: Optional[TrainingSpec] = None
    schedule_every: int = 1
    risk: Optional[RiskConfig] = None
    sharded: bool = False


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete experiment as data.  See the module docstring.

    ``horizon`` truncates every run to the first ``horizon`` intervals
    (default: the full trace).  ``analysis`` names an entry of
    :data:`ANALYSES` to run after the variants — the hook that ports
    non-simulation experiments (Table I model quality, the scaling
    measurements) onto the same engine; its dict return value lands in
    :attr:`ScenarioResult.extras`.
    """

    name: str
    description: str = ""
    fleet: Optional[FleetSpec] = None
    workload: Optional[WorkloadSpec] = None
    variants: Tuple[VariantSpec, ...] = ()
    training: Optional[TrainingSpec] = None
    failures: Optional[FailureSpec] = None
    tariffs: Optional[TariffSpec] = None
    horizon: Optional[int] = None
    analysis: Optional[str] = None
    seed: int = 7
    params: Mapping[str, object] = field(default_factory=dict)

    def build_world(self, variant: Optional[VariantSpec] = None,
                    base_trace: Optional[WorkloadTrace] = None
                    ) -> Tuple[MultiDCSystem, WorkloadTrace,
                               Optional[FailureInjector]]:
        """A fresh ``(system, trace, failure injector)`` for one run.

        The one world builder, in this order: the fleet (``variant``'s,
        else the scenario's), the trace (``base_trace`` unless the
        workload is fleet-derived), ``variant.trace_scale``, tariffs,
        then the injector (``None`` without a :class:`FailureSpec`).
        Scenario runs, served sessions and the arena's parity replay
        all build through it.
        """
        fleet = (variant.fleet if variant is not None else None) or self.fleet
        if fleet is None:
            where = f": variant {variant.name!r}" if variant else ""
            raise ValueError(f"scenario {self.name!r}{where} has no fleet")
        system, fleet_trace = fleet.build()
        if self.workload is None:
            raise ValueError(f"scenario {self.name!r} has no workload")
        if base_trace is not None and self.workload.kind != "fleet":
            trace = base_trace
        else:
            trace = self.workload.build(fleet_trace)
        if variant is not None and variant.trace_scale is not None:
            trace = trace.scaled(variant.trace_scale)
        if self.tariffs is not None:
            system.tariff_schedule = self.tariffs.build(
                system, trace.n_intervals, trace.interval_s)
        injector = (self.failures.build() if self.failures is not None
                    else None)
        return system, trace, injector


# =============================================================================
# Result layer
# =============================================================================

#: The per-interval metric arrays every variant exposes.
SERIES_METRICS: Tuple[str, ...] = tuple(SERIES_FIELDS)


@dataclass
class VariantResult:
    """Everything one variant run produced."""

    name: str
    summary: RunSummary
    series: Dict[str, np.ndarray]
    run_s: float
    #: Live objects for analyses and the legacy wrappers (not serialized).
    history: RunHistory = field(repr=False, default=None)
    trace: WorkloadTrace = field(repr=False, default=None)
    models: Optional[ModelSet] = field(repr=False, default=None)
    monitor: Optional[Monitor] = field(repr=False, default=None)
    failure_injector: Optional[FailureInjector] = field(repr=False,
                                                        default=None)
    scheduler: Optional[Scheduler] = field(repr=False, default=None)

    def kpis(self) -> Dict[str, float]:
        """The aggregate KPIs of this run (JSON-ready scalars)."""
        s = self.summary
        return {
            "n_intervals": s.n_intervals,
            "hours": s.hours,
            "avg_sla": s.avg_sla,
            "avg_watts": s.avg_watts,
            "avg_eur_per_hour": s.avg_eur_per_hour,
            "total_energy_wh": s.total_energy_wh,
            "revenue_eur": s.revenue_eur,
            "energy_cost_eur": s.energy_cost_eur,
            "migration_penalty_eur": s.migration_penalty_eur,
            "profit_eur": s.profit_eur,
            "n_migrations": s.n_migrations,
            "n_inter_dc_migrations": s.n_inter_dc_migrations,
            "avg_pms_on": float(self.series["pms_on"].mean())
            if len(self.series["pms_on"]) else 0.0,
            "run_s": self.run_s,
        }


@dataclass
class ScenarioResult:
    """Structured outcome of :func:`run_scenario`."""

    spec: ScenarioSpec
    variants: Dict[str, VariantResult]
    timings: Dict[str, float]
    extras: Dict[str, object] = field(default_factory=dict)
    models: Optional[ModelSet] = field(repr=False, default=None)
    monitor: Optional[Monitor] = field(repr=False, default=None)
    #: Variant name -> streamed artifact path, when the run streamed
    #: per-interval KPIs to disk sinks.  Deliberately *not* part of the
    #: ``--json`` artifact: the artifact stays byte-comparable between
    #: streamed and in-memory runs (``scenarios diff``-clean).
    streams: Dict[str, str] = field(default_factory=dict)

    def variant(self, name: str) -> VariantResult:
        return self.variants[name]

    def kpis(self) -> Dict[str, Dict[str, float]]:
        """Per-variant KPI dicts, keyed by variant name."""
        return {name: v.kpis() for name, v in self.variants.items()}

    # -- serialization --------------------------------------------------------
    def to_json_dict(self, include_series: bool = True) -> Dict[str, object]:
        """The stable ``--json`` artifact schema.

        Top-level keys: ``scenario``, ``description``, ``seed``,
        ``timings``, ``variants`` (each with ``kpis`` and, when
        ``include_series``, ``series``) and ``extras`` (the JSON-safe
        subset of the analysis payload).
        """
        out: Dict[str, object] = {
            "scenario": self.spec.name,
            "description": self.spec.description,
            "seed": self.spec.seed,
            "timings": {k: float(v) for k, v in self.timings.items()},
            "variants": {},
        }
        for name, v in self.variants.items():
            entry: Dict[str, object] = {"kpis": v.kpis()}
            if include_series:
                entry["series"] = {k: np.asarray(s, dtype=float).tolist()
                                   for k, s in v.series.items()}
            out["variants"][name] = entry
        extras = {}
        for key, value in self.extras.items():
            coerced = json_safe(value)
            try:
                json.dumps(coerced)
            except (TypeError, ValueError):
                warnings.warn(
                    f"dropping unserializable extras[{key!r}] "
                    f"({type(value).__name__})", RuntimeWarning,
                    stacklevel=2)
                continue
            extras[key] = coerced
        out["extras"] = extras
        return out

    def save_json(self, path, include_series: bool = True) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(include_series=include_series), fh,
                      indent=2, sort_keys=True)
            fh.write("\n")

    def to_rows(self) -> List[Dict[str, object]]:
        """One flat dict per (variant, interval) — for CSV/DataFrames."""
        rows: List[Dict[str, object]] = []
        for name, v in self.variants.items():
            n = min((len(s) for s in v.series.values()), default=0)
            for t in range(n):
                row: Dict[str, object] = {"variant": name, "t": t}
                for metric in SERIES_METRICS:
                    row[metric] = float(v.series[metric][t])
                rows.append(row)
        return rows

    def save_csv(self, path) -> None:
        import csv
        rows = self.to_rows()
        if not rows:
            raise ValueError("no interval series to write")
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


def json_safe(value: object) -> object:
    """Recursively coerce ``value`` into JSON-serializable Python types.

    Numpy scalars become Python scalars, numpy arrays become (nested)
    lists, mappings/sequences are converted element-wise.  Types with no
    obvious JSON form (objects, functions, ...) are returned unchanged —
    callers decide whether to drop or stringify them.  Shared by
    :meth:`ScenarioResult.to_json_dict` and the service layer's response
    encoder, so ``ANALYSES`` extras and endpoint payloads survive numpy-
    bearing values instead of being silently dropped.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def format_scenario_result(result: ScenarioResult) -> str:
    """A generic text report: KPI table per variant, then extras."""
    spec = result.spec
    lines = [f"Scenario {spec.name}"
             + (f": {spec.description}" if spec.description else "")]
    if result.variants:
        lines.append(
            f"{'variant':<18} {'EUR/h':>8} {'avg W':>8} {'avg SLA':>8} "
            f"{'migr':>6} {'PMs on':>7} {'run s':>7}")
        for name, v in result.variants.items():
            k = v.kpis()
            lines.append(
                f"{name:<18} {k['avg_eur_per_hour']:>8.3f} "
                f"{k['avg_watts']:>8.1f} {k['avg_sla']:>8.3f} "
                f"{k['n_migrations']:>6d} {k['avg_pms_on']:>7.2f} "
                f"{k['run_s']:>7.2f}")
    report = result.extras.get("report")
    if isinstance(report, str):
        lines += ["", report]
    t = result.timings
    lines.append("")
    lines.append("timings: " + ", ".join(f"{k} {v:.2f} s"
                                         for k, v in t.items()))
    return "\n".join(lines)


# =============================================================================
# Runner
# =============================================================================

#: Post-run analysis hooks: name -> fn(ScenarioResult) -> extras dict.
#: Experiment modules register here (e.g. Table I's model-quality
#: metrics); numeric/JSON-able entries flow into the ``--json`` artifact.
ANALYSES: Dict[str, Callable[[ScenarioResult], Dict[str, object]]] = {}


def _train(training: TrainingSpec, spec: ScenarioSpec,
           base_trace: Optional[WorkloadTrace] = None):
    """Run one training spec: harvest + Table I model fit."""
    fleet = training.fleet or spec.fleet
    workload = training.workload or spec.workload
    if fleet is None or workload is None:
        raise ValueError(f"scenario {spec.name!r}: training needs a fleet "
                         f"and a workload")
    if training.workload is None and base_trace is not None:
        # Training on the scenario's own workload: reuse the already
        # built (deterministic) trace instead of synthesizing it again.
        trace = base_trace
    else:
        # Only trace-producing fleet kinds need a build here; building
        # the system for the others would be thrown away unused.
        fleet_trace = fleet.build()[1] if workload.kind == "fleet" else None
        trace = workload.build(fleet_trace)
    return train_paper_models(lambda: fleet.build()[0], trace,
                              scales=training.scales, seed=training.seed,
                              bagging=training.bagging,
                              calibrate=training.calibrate)


def _training_key(training: TrainingSpec, spec: ScenarioSpec) -> str:
    """Cache key covering *every* knob that shapes the trained models.

    The effective fleet/workload (after falling back to the scenario's
    own) are part of the key, so a variant-level spec that happens to
    equal the scenario-level one shares its models, while any knob
    drift — scales, seed, bagging, calibration, a different training
    fleet — trains fresh.  Specs are frozen dataclasses of plain data,
    so their reprs are canonical.
    """
    return repr((training.scales, training.seed, training.bagging,
                 training.calibrate,
                 training.fleet or spec.fleet,
                 training.workload or spec.workload))


def run_scenario(spec: Union[ScenarioSpec, str],
                 models: Optional[ModelSet] = None,
                 sink_factory: Optional[Callable[[str], object]] = None,
                 keep_reports: Optional[bool] = None) -> ScenarioResult:
    """Run one scenario spec end to end; see the module docstring.

    ``spec`` may be a registered scenario name.  ``models`` injects an
    already-trained model set (skipping the training phase) — the hook
    the one-shot report uses to share one training run across artifacts.

    ``sink_factory`` maps a variant name to a fresh
    :class:`~repro.sim.metrics.MetricsSink`; each variant's per-interval
    KPIs are streamed to its sink as they are played (the sink is closed
    by this function).  Streaming implies ``keep_reports=False`` unless
    overridden: per-interval reports are dropped after feeding the sink,
    and peak memory stays flat in horizon length.  Without a factory each
    variant feeds an :class:`~repro.sim.metrics.InMemoryMetricsSink`, so
    every variant's summary and series come from its sink through the
    one KPI reduction.  Disk-sink paths land in
    :attr:`ScenarioResult.streams`.
    """
    if isinstance(spec, str):
        spec = REGISTRY.spec(spec)
    keep = keep_reports if keep_reports is not None else sink_factory is None
    if not keep and sink_factory is None:
        raise ValueError("keep_reports=False requires a sink_factory")
    t_total = time.perf_counter()
    timings: Dict[str, float] = {}

    # -- base trace (shared by variants and the training harvest) -----------
    t0 = time.perf_counter()
    base_trace: Optional[WorkloadTrace] = None
    if spec.workload is not None and spec.workload.kind != "fleet":
        base_trace = spec.workload.build(None)
    timings["build_s"] = time.perf_counter() - t0

    # -- train (shared across variants unless a variant overrides) ----------
    # Per-run cache of trained model sets, keyed on the full training
    # knobs (scales, seed, bagging, calibration, fleet, workload): two
    # variants share a ModelSet iff their effective specs are identical,
    # so mismatched training can never be silently reused while
    # identical per-variant specs train only once.
    trained: Dict[str, Tuple[ModelSet, Monitor]] = {}
    monitor: Optional[Monitor] = None
    t0 = time.perf_counter()
    if spec.training is not None:
        if models is None:
            models, monitor = _train(spec.training, spec, base_trace)
        # Seed the cache whether the models were trained here or injected:
        # an injected ModelSet stands in for the scenario-level training, so
        # a variant whose training spec equals the scenario's must reuse it
        # rather than silently retraining (and diverging from) the injected
        # set.
        trained[_training_key(spec.training, spec)] = (models, monitor)
    timings["train_s"] = time.perf_counter() - t0

    variants: Dict[str, VariantResult] = {}
    streams: Dict[str, str] = {}
    for variant in spec.variants:
        t0 = time.perf_counter()
        system, trace, injector = spec.build_world(variant, base_trace)
        variant_models = models
        variant_monitor = None
        if variant.training is not None:
            key = _training_key(variant.training, spec)
            if key not in trained:
                trained[key] = _train(variant.training, spec, base_trace)
            variant_models, variant_monitor = trained[key]

        scheduler, live_monitor = variant.scheduler.build(variant_models,
                                                          risk=variant.risk)
        sink = (sink_factory(variant.name) if sink_factory is not None
                else InMemoryMetricsSink())
        try:
            history = run_simulation(
                system, trace, scheduler=scheduler,
                schedule_every=variant.schedule_every,
                monitor=live_monitor, failure_injector=injector,
                stop=spec.horizon, sink=sink, keep_reports=keep,
                sharded=variant.sharded)
        finally:
            sink.close()
        if getattr(sink, "path", None):
            streams[variant.name] = sink.path
        variants[variant.name] = VariantResult(
            name=variant.name, summary=sink.summary(),
            series=sink.series(),
            run_s=time.perf_counter() - t0,
            history=history, trace=trace, models=variant_models,
            monitor=variant_monitor or live_monitor,
            failure_injector=injector, scheduler=scheduler)

    result = ScenarioResult(spec=spec, variants=variants, timings=timings,
                            models=models, monitor=monitor,
                            streams=streams)
    if spec.analysis is not None:
        fn = ANALYSES.get(spec.analysis)
        if fn is None:
            raise KeyError(f"unknown analysis {spec.analysis!r} "
                           f"(registered: {sorted(ANALYSES)})")
        t0 = time.perf_counter()
        result.extras.update(fn(result))
        timings["analysis_s"] = time.perf_counter() - t0
    timings["total_s"] = time.perf_counter() - t_total
    return result


# =============================================================================
# Registry
# =============================================================================

@dataclass(frozen=True)
class RegisteredScenario:
    """A named, parameterizable scenario factory."""

    name: str
    description: str
    factory: Callable[..., ScenarioSpec]


class ScenarioRegistry:
    """Named scenario factories, looked up by the CLI and the examples.

    Factories take the common override keywords ``n_intervals``, ``seed``
    and ``scale`` (each optional, ``None`` = the scenario's default), so
    ``scenarios run <name> --intervals 24`` works uniformly.
    ``n_intervals`` and ``scale`` must be positive when given (the CLI
    enforces this); a scenario without a given knob raises ``ValueError``
    on an explicit override instead of silently ignoring it.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, RegisteredScenario] = {}

    def register(self, name: str, description: str = ""):
        """Decorator: ``@REGISTRY.register("name", description="...")``."""
        def wrap(factory: Callable[..., ScenarioSpec]):
            existing = self._entries.get(name)
            if existing is not None:
                def _origin(f):
                    code = getattr(f, "__code__", None)
                    if code is None:
                        return None
                    return (code.co_filename, code.co_firstlineno)
                if (_origin(factory) is not None
                        and _origin(factory) == _origin(existing.factory)):
                    # ``python -m repro.experiments.<module>`` re-executes
                    # the module body under runpy after the package import
                    # already registered it — the same registration line
                    # runs twice; keep the first entry.  A collision from
                    # any other source line still errors.
                    return factory
                raise ValueError(f"scenario {name!r} already registered")
            self._entries[name] = RegisteredScenario(
                name=name, description=description, factory=factory)
            return factory
        return wrap

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def describe(self, name: str) -> str:
        return self._entries[name].description

    def spec(self, name: str, **overrides) -> ScenarioSpec:
        """Build the named spec, applying any factory overrides."""
        entry = self._entries.get(name)
        if entry is None:
            raise KeyError(f"unknown scenario {name!r} "
                           f"(registered: {self.names()})")
        return entry.factory(**overrides)


#: The global registry; experiment modules register their specs at import
#: (importing :mod:`repro.experiments` populates it).
REGISTRY = ScenarioRegistry()


def fallback(value, default):
    """``default`` only when ``value`` is None — 0 is a real override.

    The registered factories use this for their ``n_intervals``/``scale``
    keywords so that falsy values are passed through instead of silently
    replaced (``value or default`` would eat them).
    """
    return default if value is None else value
