"""Pareto-frontier filtering over (accuracy, objective) points.

The paper's "Pareto optimization" stage (Figure 2) filters the feasible
configuration set down to the configurations for which no other feasible
configuration has both higher accuracy and lower time (or cost).  That is
a classic 2-D Pareto front with one maximised dimension (accuracy) and
one minimised (time or cost); :func:`pareto_indices` computes it in
O(n log n) with one sort and an exclusive running minimum, both numpy
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Sequence, TypeVar

import numpy as np

__all__ = ["pareto_indices", "pareto_front", "ParetoPoint"]

T = TypeVar("T")


@dataclass(frozen=True)
class ParetoPoint(Generic[T]):
    """One Pareto-optimal point with its originating payload."""

    accuracy: float
    objective: float
    payload: T


def pareto_indices(
    accuracies: Sequence[float], objectives: Sequence[float]
) -> np.ndarray:
    """Indices of Pareto-optimal points (maximise accuracy, minimise objective).

    A point is dominated when some other point has accuracy >= and
    objective <= with at least one strict inequality.  Among duplicates
    (identical accuracy and objective) the first occurrence is kept.
    Returned indices are sorted by descending accuracy.
    """
    acc = np.asarray(accuracies, dtype=float)
    obj = np.asarray(objectives, dtype=float)
    if acc.shape != obj.shape or acc.ndim != 1:
        raise ValueError("accuracies and objectives must be equal-length 1-D")
    if acc.size == 0:
        return np.empty(0, dtype=np.intp)
    # accuracy desc, then objective asc; lexsort is stable, so equal
    # points keep index order and the first occurrence survives
    order = np.lexsort((obj, -acc))
    s = obj[order]
    # every earlier point in this order has accuracy >= the current one,
    # so a point survives iff it beats the best objective before it;
    # fmin skips NaN, matching a scan that never lets NaN win
    best = np.fmin.accumulate(np.concatenate(([np.inf], s[:-1])))
    return order[s < best]


def pareto_front(
    points: Sequence[tuple[float, float, T]]
) -> list[ParetoPoint[T]]:
    """Pareto filter over ``(accuracy, objective, payload)`` triples.

    Returns :class:`ParetoPoint` records ordered by descending accuracy.
    """
    if not points:
        return []
    acc = [p[0] for p in points]
    obj = [p[1] for p in points]
    idx = pareto_indices(acc, obj)
    return [
        ParetoPoint(accuracy=acc[i], objective=obj[i], payload=points[i][2])
        for i in idx
    ]
