"""Cloud execution simulator.

Runs a (pruned CNN, workload) job on a resource configuration using the
calibrated time model and the accuracy model, producing the full record
the paper's measurement phase emits: time, cost, Top-1/Top-5 accuracy,
TAR and CAR.  This is the substrate for the Pareto studies (Figures 9,
10), the TAR/CAR figures (11, 12), and Algorithm 1's T/C estimation.

Grid evaluation (every degree of pruning crossed with every resource
configuration) lives in :mod:`repro.core.evalspace`; the simulator only
evaluates single points and memoizes the accuracy model per degree so
repeated grid rows cost one model evaluation each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.calibration.accuracy_model import AccuracyModel, AccuracyPair
from repro.cloud.configuration import ResourceConfiguration
from repro.core.metrics import car as _car, tar as _tar
from repro.errors import ConfigurationError
from repro.obs import get_metrics
from repro.perf.latency import CalibratedTimeModel
from repro.pruning.base import PruneSpec

__all__ = ["CloudSimulator", "SimulationResult"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated inference job."""

    spec: PruneSpec
    configuration: ResourceConfiguration
    images: int
    time_s: float
    cost: float
    accuracy: AccuracyPair

    @property
    def time_hours(self) -> float:
        return self.time_s / 3600.0

    def tar(self, metric: str = "top5") -> float:
        """Time Accuracy Ratio in hours per unit accuracy."""
        return _tar(self.time_hours, self.accuracy.get(metric) / 100.0)

    def car(self, metric: str = "top5") -> float:
        """Cost Accuracy Ratio in dollars per unit accuracy."""
        return _car(self.cost, self.accuracy.get(metric) / 100.0)

    def within(self, deadline_s: float | None, budget: float | None) -> bool:
        """Feasibility against a time deadline T' and cost budget C'."""
        if deadline_s is not None and self.time_s > deadline_s:
            return False
        if budget is not None and self.cost > budget:
            return False
        return True


class CloudSimulator:
    """Evaluates inference jobs against the calibrated models.

    Parameters
    ----------
    time_model:
        Calibrated inference-time model of the CNN being served.
    accuracy_model:
        Calibrated accuracy-response model of the same CNN.
    proportional_split:
        Use the capacity-proportional workload split instead of the
        paper's even split (Eq. 4); used by the split ablation.
    """

    def __init__(
        self,
        time_model: CalibratedTimeModel,
        accuracy_model: AccuracyModel,
        proportional_split: bool = False,
    ) -> None:
        if time_model.name != accuracy_model.name:
            raise ConfigurationError(
                f"model mismatch: time={time_model.name!r} "
                f"accuracy={accuracy_model.name!r}"
            )
        self.time_model = time_model
        self.accuracy_model = accuracy_model
        self.proportional_split = proportional_split
        # accuracy depends only on the degree of pruning, not the
        # configuration, so one evaluation serves a whole grid row
        self._accuracy_cache: dict[
            tuple[tuple[str, float], ...], AccuracyPair
        ] = {}

    # ------------------------------------------------------------------
    def accuracy(self, spec: PruneSpec) -> AccuracyPair:
        """Memoized accuracy-model evaluation for ``spec``."""
        cached = self._accuracy_cache.get(spec.ratios)
        if cached is None:
            cached = self.accuracy_model.accuracy(spec)
            self._accuracy_cache[spec.ratios] = cached
        return cached

    def run(
        self,
        spec: PruneSpec,
        configuration: ResourceConfiguration,
        images: int,
    ) -> SimulationResult:
        """Simulate inferring ``images`` with ``spec`` on ``configuration``."""
        if images < 1:
            raise ConfigurationError("images must be >= 1")
        get_metrics().counter("cloud.simulations").inc()
        time_s, cost = configuration.evaluate(
            self.time_model,
            spec,
            images,
            proportional_split=self.proportional_split,
        )
        return SimulationResult(
            spec=spec,
            configuration=configuration,
            images=images,
            time_s=time_s,
            cost=cost,
            accuracy=self.accuracy(spec),
        )
