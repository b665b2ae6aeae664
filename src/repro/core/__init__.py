"""The paper's core contribution: profit-driven multi-DC scheduling.

* :mod:`~repro.core.sla` — the RT->QoS contract function.
* :mod:`~repro.core.profit` — revenue / penalty / energy-cost objective terms.
* :mod:`~repro.core.model` — Figure 3 as evaluatable objects.
* :mod:`~repro.core.estimators` — observed vs learned vs oracle knowledge.
* :mod:`~repro.core.bestfit` — Algorithm 1 (Ordered Descending Best-Fit).
* :mod:`~repro.core.exact` — branch-and-bound optimality reference.
* :mod:`~repro.core.hierarchical` — the two-layer multi-DC scheduler.
* :mod:`~repro.core.policies` — ready-made scheduler presets.
"""

from .bestfit import (BestFitResult, SchedulingRound, descending_best_fit,
                      make_bestfit_scheduler)
from .estimators import (Estimator, MLEstimator, ObservedEstimator,
                         OracleEstimator)
from .exact import ExactResult, exact_schedule
from .hierarchical import HierarchicalScheduler, RoundDiagnostics
from .model import (BatchEvaluation, HostBatch, HostView, ObjectiveWeights,
                    PlacementEvaluation, RoundScorer, SchedulingProblem,
                    ScheduleViolation, VMRequest, check_schedule,
                    evaluate_schedule, placement_profit)
from .online import OnlineLearningScheduler
from .policies import (bf_ml_scheduler, bf_overbook_scheduler, bf_scheduler,
                       exact_scheduler, follow_the_load_scheduler,
                       hierarchical_ml_scheduler, oracle_scheduler,
                       static_scheduler)
from .profit import (PriceBook, ProfitBreakdown, energy_cost_eur,
                     migration_penalty_eur, revenue_eur)
from .sla import PAPER_SLA, SLAContract, sla_fulfillment, weighted_sla

__all__ = [
    "BestFitResult", "SchedulingRound", "descending_best_fit", "make_bestfit_scheduler",
    "Estimator", "MLEstimator", "ObservedEstimator", "OracleEstimator",
    "ExactResult", "exact_schedule",
    "HierarchicalScheduler", "RoundDiagnostics",
    "BatchEvaluation", "HostBatch", "HostView", "ObjectiveWeights",
    "PlacementEvaluation", "RoundScorer", "SchedulingProblem",
    "ScheduleViolation",
    "VMRequest", "check_schedule", "evaluate_schedule",
    "placement_profit",
    "OnlineLearningScheduler",
    "bf_ml_scheduler", "bf_overbook_scheduler", "bf_scheduler",
    "exact_scheduler",
    "follow_the_load_scheduler", "hierarchical_ml_scheduler",
    "oracle_scheduler", "static_scheduler",
    "PriceBook", "ProfitBreakdown", "energy_cost_eur",
    "migration_penalty_eur", "revenue_eur",
    "PAPER_SLA", "SLAContract", "sla_fulfillment", "weighted_sla",
]
