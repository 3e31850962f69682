"""Two-period geodesic difference-in-differences estimator."""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroupError, InvariantViolationError
from .frechet import group_means
from .geometry import Geodesic, distance, transport


@dataclass(frozen=True)
class GattEstimate:
    """Estimated treatment-effect geodesic plus the ingredients behind it.

    `effect` runs from the counterfactual treated post-period mean to the
    observed one; `magnitude` is its length (a scalar summary only, the
    estimand itself is the geodesic). `means` maps (group, period) to the
    four estimated Frechet means.
    """

    effect: Geodesic
    magnitude: float
    means: dict


def estimate_gatt(panel):
    """Algorithm: four group-period means, transport the control trend, connect.

    The panel must have exactly two periods; group membership is the
    treatment status at period 1.
    """
    if panel.n_periods != 2:
        raise InvariantViolationError(
            f"two-period estimator got {panel.n_periods} periods"
        )
    treated = panel.treatment[:, 1] == 1
    if not treated.any():
        raise EmptyGroupError("no treated units")
    if treated.all():
        raise EmptyGroupError("no control units")
    means = {}
    for d, mask in ((0, ~treated), (1, treated)):
        for t in (0, 1):
            means[(d, t)] = group_means(panel, t, mask).mean
    counterfactual = transport(means[(0, 0)], means[(0, 1)], means[(1, 0)])
    effect = Geodesic(counterfactual, means[(1, 1)])
    return GattEstimate(
        effect=effect,
        magnitude=distance(effect.start, effect.end),
        means=means,
    )


def placebo_pretrend(panel, pre_periods=(0, 1), groups=None):
    """Parallel-trends diagnostic: rerun the estimator on two untreated periods.

    The second pre-period is treated as if it were the post period, with
    eventual treatment status (or an explicit `groups` 0/1 array) as the group
    label. A small magnitude supports the parallel trends assumption; no
    pass/fail threshold is imposed.
    """
    a, b = pre_periods
    if not (0 <= a < b < panel.n_periods):
        raise InvariantViolationError(f"invalid pre-period pair {pre_periods}")
    if np.any(panel.treatment[:, [a, b]] != 0):
        raise InvariantViolationError(
            f"periods {a} and {b} must both be untreated for every unit"
        )
    if groups is None:
        eventually_treated = panel.ever_treated().astype(int)
    else:
        eventually_treated = np.asarray(groups, dtype=int)
    if not eventually_treated.any():
        raise EmptyGroupError("no eventually-treated units for the placebo split")
    synthetic_treatment = np.column_stack(
        [np.zeros(panel.n_units, dtype=int), eventually_treated]
    )
    two_period = panel.subset_periods((a, b), treatment=synthetic_treatment)
    return estimate_gatt(two_period)
