"""Empirical Frechet means.

Each space backend computes its own mean: closed forms for the Wasserstein
space (mean of quantile functions) and the Frobenius space (entrywise matrix
mean), and on the sphere a unit-step Karcher iteration whose tangent-space
average takes all the points' log maps in one array step.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroupError
from .geometry import backend_of


@dataclass(frozen=True)
class FrechetResult:
    mean: object
    iterations: int
    converged: bool


def frechet_mean(points, weights=None):
    """Weighted Frechet mean of points that all live in one space."""
    points = list(points)
    if not points:
        raise EmptyGroupError("cannot average an empty set of points")
    if weights is None:
        weights = np.ones(len(points))
    else:
        weights = np.asarray(weights, dtype=float)
        if len(weights) != len(points):
            raise ValueError("weights and points must have equal length")
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("weights must be nonnegative with positive sum")
    mean, iterations = backend_of(*points).mean(points, weights)
    return FrechetResult(mean, iterations, True)


def group_means(panel, period, selector):
    """Frechet mean of outcomes at `period` over units where selector is true.

    `selector` is a boolean array over units.
    """
    selector = np.asarray(selector, dtype=bool)
    if not selector.any():
        raise EmptyGroupError(f"selected group is empty at period {period}")
    points = [panel.outcomes[i][period] for i in np.flatnonzero(selector)]
    return frechet_mean(points)
