"""On-line learning: periodic retraining on recent monitored data.

The paper's future work (§VI.4): "the use of on-line learning methods, able
to retrain continuously on recent data, to make the system react quickly to
changes in either application behavior, hardware or middleware changes, or
workload characteristics."

:class:`OnlineLearningScheduler` wraps ML-enhanced Best-Fit: it keeps its
own monitor over the live run, and every ``retrain_every`` rounds refits the
seven Table I predictors on a sliding window of the freshest samples
(optionally blended with a warm-start harvest).  Until enough samples exist
it falls back to the bootstrap models (or, lacking those, to plain observed
Best-Fit behaviour through optimistic defaults).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..ml.predictors import ModelSet, train_model_set
from ..sim.engine import Scheduler
from ..sim.monitor import Monitor
from ..sim.multidc import MultiDCSystem
from ..workload.traces import WorkloadTrace
from .bestfit import SchedulingRound
from .estimators import MLEstimator
from .model import ObjectiveWeights

__all__ = ["OnlineLearningScheduler"]


@dataclass
class OnlineLearningScheduler:
    """ML Best-Fit with periodic retraining on a sliding sample window.

    Parameters
    ----------
    monitor:
        The live monitor (share it with ``run_simulation`` so observations
        flow in); the scheduler never clears it, it reads the tail.
    bootstrap:
        Models used before the first retrain (e.g. from an offline
        harvest); None means "wait for data", scheduling nothing until
        ``min_samples`` observations exist.
    retrain_every:
        Rounds between refits.
    window:
        Number of freshest VM samples per refit (PM samples follow suit).
    min_samples:
        Don't (re)train below this many VM samples.
    """

    monitor: Monitor
    bootstrap: Optional[ModelSet] = None
    retrain_every: int = 12
    window: int = 2000
    min_samples: int = 120
    sla_mode: str = "direct"
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    min_gain_eur: float = 0.0
    seed: int = 0
    #: Diagnostics: interval of each completed retrain.
    retrain_history: list = field(default_factory=list)
    _models: Optional[ModelSet] = field(default=None, init=False)
    _rounds_seen: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.retrain_every < 1:
            raise ValueError("retrain_every must be >= 1")
        if self.window < self.min_samples:
            raise ValueError("window must be >= min_samples")
        self._models = self.bootstrap

    @property
    def models(self) -> Optional[ModelSet]:
        """The models currently driving decisions."""
        return self._models

    def _windowed_monitor(self) -> Monitor:
        """A monitor view holding only the freshest samples."""
        view = Monitor(rng=np.random.default_rng(self.seed + 1))
        view.vm_samples = list(self.monitor.vm_samples[-self.window:])
        if self.monitor.vm_samples:
            oldest_t = view.vm_samples[0].t
            view.pm_samples = [s for s in self.monitor.pm_samples
                               if s.t >= oldest_t]
        return view

    def _maybe_retrain(self) -> None:
        due = self._rounds_seen % self.retrain_every == 0
        if not due:
            return
        if len(self.monitor.vm_samples) < self.min_samples:
            return
        view = self._windowed_monitor()
        if len(view.pm_samples) < 10:
            return
        self._models = train_model_set(
            view, rng=np.random.default_rng(self.seed + self._rounds_seen))
        self.retrain_history.append(self._rounds_seen)

    def __call__(self, system: MultiDCSystem, trace: WorkloadTrace,
                 t: int) -> Optional[Dict[str, str]]:
        self._maybe_retrain()
        self._rounds_seen += 1
        if self._models is None:
            return None  # still warming up: keep the current placement
        estimator = MLEstimator(self._models, sla_mode=self.sla_mode)
        round_ = SchedulingRound(system, trace, t, estimator,
                                 weights=self.weights)
        problem = round_.problem()
        if not problem.requests:
            return None
        return round_.pack(problem,
                           min_gain_eur=self.min_gain_eur).assignment
