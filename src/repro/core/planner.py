"""Inverse planning queries over the configuration space.

The paper answers "what fits inside (T', C')?"; a consumer budgeting a
project asks the inverse questions, answered here for
:func:`repro.api.plan`:

* the cheapest money that buys a target accuracy within a deadline;
* the shortest completion time a budget can buy at a target accuracy;
* the (deadline, budget) trade curve for one accuracy target: every
  point is a different Pareto-optimal configuration for the same
  result quality.

All three are vectorised selections over one
:class:`~repro.core.evalspace.EvaluatedSpace`;
:class:`PlanningSpace` is a thin (space, metric) view whose queries run
on the space's numpy columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.cloud.configuration import ResourceConfiguration
from repro.cloud.simulator import CloudSimulator, SimulationResult
from repro.core.evalspace import EvaluatedSpace, SpaceSpec, evaluate
from repro.core.pareto import pareto_indices
from repro.errors import InfeasibleError
from repro.pruning.schedule import DegreeOfPruning

__all__ = ["PlanningSpace"]


@dataclass(frozen=True, eq=False)
class PlanningSpace:
    """An evaluated (degree x configuration) space to plan over."""

    space: EvaluatedSpace
    metric: str = "top5"

    @classmethod
    def evaluate(
        cls,
        simulator: CloudSimulator,
        degrees: Sequence[DegreeOfPruning],
        configurations: Sequence[ResourceConfiguration],
        images: int,
        metric: str = "top5",
    ) -> "PlanningSpace":
        """Evaluate a fresh grid and wrap it for planning queries."""
        evaluated = evaluate(
            SpaceSpec.from_simulator(
                simulator, degrees, configurations, images
            )
        )
        return cls(space=evaluated, metric=metric)

    # ------------------------------------------------------------------
    @property
    def results(self) -> tuple[SimulationResult, ...]:
        """The underlying per-point simulation records."""
        return self.space.results

    def _accurate_enough(self, target: float) -> np.ndarray:
        """Indices of rows at or above the target accuracy."""
        return np.flatnonzero(self.space.accuracy(self.metric) >= target)

    def reachable_accuracy(self) -> float:
        """Best accuracy anywhere in the space (no constraints)."""
        return float(self.space.accuracy(self.metric).max())


def _min_budget_for(
    space: PlanningSpace,
    target_accuracy: float,
    deadline_s: float,
) -> SimulationResult:
    """Cheapest configuration reaching ``target_accuracy`` in time."""
    idx = space._accurate_enough(target_accuracy)
    idx = idx[space.space.time_s[idx] <= deadline_s]
    if idx.size == 0:
        raise InfeasibleError(
            f"no configuration reaches {target_accuracy}% "
            f"{space.metric} within {deadline_s:.0f}s"
        )
    # lexsort is stable: min by (cost, time), first occurrence on ties
    order = np.lexsort((space.space.time_s[idx], space.space.cost[idx]))
    return space.results[idx[order[0]]]


def _min_deadline_for(
    space: PlanningSpace,
    target_accuracy: float,
    budget: float,
) -> SimulationResult:
    """Fastest configuration reaching ``target_accuracy`` on budget."""
    idx = space._accurate_enough(target_accuracy)
    idx = idx[space.space.cost[idx] <= budget]
    if idx.size == 0:
        raise InfeasibleError(
            f"no configuration reaches {target_accuracy}% "
            f"{space.metric} within ${budget:.2f}"
        )
    order = np.lexsort((space.space.cost[idx], space.space.time_s[idx]))
    return space.results[idx[order[0]]]


def _iso_accuracy_frontier(
    space: PlanningSpace, target_accuracy: float
) -> list[SimulationResult]:
    """The (time, cost) Pareto curve at one accuracy target.

    Points are mutually non-dominated in (time, cost) among all
    configurations meeting the accuracy bar; walking the curve trades
    money for completion time at constant result quality.
    """
    idx = space._accurate_enough(target_accuracy)
    if idx.size == 0:
        raise InfeasibleError(
            f"no configuration reaches {target_accuracy}% {space.metric}"
        )
    # reuse the 2-D filter with accuracy := -time (maximise -time)
    local = pareto_indices(
        -space.space.time_s[idx], space.space.cost[idx]
    )
    return [space.results[i] for i in idx[local]]
