"""Policy presets: the schedulers the paper's experiments compare.

Each factory returns an engine-compatible scheduler callable:

* :func:`static_scheduler` — never moves anything (Table III
  "Static-Global": DCs cooperate only by routing traffic).
* :func:`follow_the_load_scheduler` — revenue/latency-only objective
  (Figure 5 sanity check): the VM chases its dominant load source.
* :func:`bf_scheduler` / :func:`bf_overbook_scheduler` — plain Best-Fit on
  observed usage (and the 2x-overbooking variant) for the intra-DC
  comparison of Figure 4.
* :func:`bf_ml_scheduler` — ML-enhanced Best-Fit over all hosts (flat), the
  paper's full scheduler for small multi-DC scenarios (Figures 6-7).
* :func:`hierarchical_ml_scheduler` — the two-layer variant for larger
  systems.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ml.calibration import RiskConfig
from ..ml.predictors import ModelSet
from ..sim.engine import Scheduler
from ..sim.monitor import Monitor
from .bestfit import SchedulingRound, make_bestfit_scheduler
from .estimators import MLEstimator, ObservedEstimator, OracleEstimator
from .exact import exact_schedule
from .hierarchical import DEFAULT_MIN_GAIN_EUR, HierarchicalScheduler
from .model import ObjectiveWeights

__all__ = ["static_scheduler", "follow_the_load_scheduler", "bf_scheduler",
           "bf_overbook_scheduler", "bf_ml_scheduler",
           "oracle_scheduler", "hierarchical_ml_scheduler",
           "exact_scheduler"]


def static_scheduler() -> Scheduler:
    """The do-nothing baseline: VMs stay wherever they were deployed."""

    def schedule(system, trace, t):
        return None

    return schedule


def follow_the_load_scheduler(min_gain_eur: float = 1e-6) -> Scheduler:
    """Latency-only SLA drives placement; energy and migration cost zero.

    Uses the oracle estimator so resource fit never interferes — exactly
    the paper's sanity-check setting where "the driving function is SLA
    taking into account only the request latency".
    """
    weights = ObjectiveWeights(revenue=1.0, energy=0.0, migration=0.0)
    return make_bestfit_scheduler(OracleEstimator(), weights=weights,
                                  min_gain_eur=min_gain_eur)


def bf_scheduler(monitor: Monitor,
                 weights: Optional[ObjectiveWeights] = None,
                 scope_pms: Optional[Sequence[str]] = None) -> Scheduler:
    """Plain Best-Fit: fit by last-10-minutes observed usage."""
    return make_bestfit_scheduler(ObservedEstimator(monitor),
                                  weights=weights, scope_pms=scope_pms)


def bf_overbook_scheduler(monitor: Monitor, overbook: float = 2.0,
                          weights: Optional[ObjectiveWeights] = None,
                          scope_pms: Optional[Sequence[str]] = None
                          ) -> Scheduler:
    """Best-Fit with resource overbooking (BF-OB): book ``overbook`` times
    the observed usage to absorb unexpected load peaks."""
    return make_bestfit_scheduler(ObservedEstimator(monitor,
                                                    overbook=overbook),
                                  weights=weights, scope_pms=scope_pms)


def bf_ml_scheduler(models: ModelSet, sla_mode: str = "direct",
                    weights: Optional[ObjectiveWeights] = None,
                    min_gain_eur: float = 0.0,
                    scope_pms: Optional[Sequence[str]] = None,
                    forecaster=None,
                    risk: Optional[RiskConfig] = None) -> Scheduler:
    """ML-enhanced Best-Fit: Table I models drive fit and QoS predictions.

    Pass a :class:`repro.workload.forecast.LoadForecaster` to plan on
    forecast rather than measured current-interval load, and a
    :class:`~repro.ml.calibration.RiskConfig` for calibrated,
    variance-penalized ranking (the large-candidate-set antidote).
    """
    return make_bestfit_scheduler(MLEstimator(models, sla_mode=sla_mode,
                                              risk=risk),
                                  weights=weights,
                                  min_gain_eur=min_gain_eur,
                                  scope_pms=scope_pms,
                                  forecaster=forecaster)


def oracle_scheduler(weights: Optional[ObjectiveWeights] = None,
                     min_gain_eur: float = 0.0) -> Scheduler:
    """Best-Fit with ground-truth models (upper-bound reference)."""
    return make_bestfit_scheduler(OracleEstimator(), weights=weights,
                                  min_gain_eur=min_gain_eur)


def exact_scheduler(weights: Optional[ObjectiveWeights] = None,
                    max_nodes: int = 200_000,
                    fallback: bool = True) -> Scheduler:
    """Branch-and-bound optimum per round (the arena's per-round oracle).

    Solves each round's placement problem exactly with
    :func:`repro.core.exact.exact_schedule` under ground-truth
    (:class:`OracleEstimator`) models.  The search is O(hosts^VMs), so
    this only plays small instances; when the ``max_nodes`` budget is
    exhausted the round falls back to Best-Fit on the same problem
    (``fallback=False`` re-raises instead).  The returned callable
    counts budget exhaustions on its ``n_fallbacks`` attribute.
    """
    estimator = OracleEstimator()

    def schedule(system, trace, t):
        round_ = SchedulingRound(system, trace, t, estimator,
                                 weights=weights)
        problem = round_.problem()
        if not problem.requests or not problem.hosts:
            return {}
        try:
            return exact_schedule(problem, max_nodes=max_nodes).assignment
        except RuntimeError:
            if not fallback:
                raise
            schedule.n_fallbacks += 1
            return round_.pack(problem).assignment

    schedule.n_fallbacks = 0
    return schedule


def hierarchical_ml_scheduler(models: ModelSet, sla_mode: str = "direct",
                              weights: Optional[ObjectiveWeights] = None,
                              sla_move_threshold: float = 0.95,
                              max_offers_per_dc: int = 2,
                              min_gain_eur: float = DEFAULT_MIN_GAIN_EUR,
                              risk: Optional[RiskConfig] = None
                              ) -> HierarchicalScheduler:
    """The paper's two-layer scheduler with learned models.

    ``min_gain_eur`` defaults to the churn-damping hysteresis
    (:data:`repro.core.hierarchical.DEFAULT_MIN_GAIN_EUR`); pass ``0.0``
    to opt out.  ``risk`` enables calibrated, variance-penalized ranking
    (:class:`~repro.ml.calibration.RiskConfig`).
    """
    return HierarchicalScheduler(
        estimator=MLEstimator(models, sla_mode=sla_mode, risk=risk),
        weights=weights or ObjectiveWeights(),
        sla_move_threshold=sla_move_threshold,
        max_offers_per_dc=max_offers_per_dc,
        min_gain_eur=min_gain_eur)
