"""Empirical Frechet means.

Each space backend averages a `(k, *point_shape)` stack: closed forms for the
Wasserstein space (mean of quantile functions) and the Frobenius space
(entrywise matrix mean), and on the sphere a unit-step Karcher iteration whose
tangent-space average takes all the points' log maps in one array step.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroupError
from .geometry import _BACKENDS, backend_of


@dataclass(frozen=True)
class FrechetResult:
    mean: object
    iterations: int


def frechet_mean(points):
    """Frechet mean of points that all live in one space."""
    points = list(points)
    if not points:
        raise EmptyGroupError("cannot average an empty set of points")
    backend = backend_of(*points)
    stack, fields = backend.unwrap(points)
    mean, iterations = backend.mean(stack)
    return FrechetResult(backend.wrap(mean, **fields), iterations)


def group_means(panel, period, selector):
    """Frechet mean of outcomes at `period` over units where selector is true.

    `selector` is a boolean array over units.
    """
    selector = np.asarray(selector, dtype=bool)
    if not selector.any():
        raise EmptyGroupError(f"selected group is empty at period {period}")
    backend = _BACKENDS[panel.space_id]
    mean, iterations = backend.mean(panel.data[selector, period])
    return FrechetResult(backend.wrap(mean, **panel.fields), iterations)
