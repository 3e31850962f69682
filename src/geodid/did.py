"""Two-period geodesic difference-in-differences estimator."""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroupError, InvariantViolationError
from .geometry import _BACKENDS, Geodesic


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
    return _gatt(panel, panel.treatment[:, 1] == 1, (0, 1))


def placebo_pretrend(panel, pre_periods=(0, 1), groups=None):
    """Parallel-trends diagnostic: rerun the estimator on two untreated periods.

    The second pre-period is treated as if it were the post period, with
    eventual treatment status (or `groups`, one 0/1 indicator per unit) as the
    group label. A small magnitude supports the parallel trends assumption; no
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
        treated = np.isfinite(panel.group_label_array)
    else:
        # checked before any cast, which would truncate 0.5 to 0
        groups = np.asarray(groups)
        if groups.shape != (panel.n_units,) or not np.isin(groups, (0, 1)).all():
            raise InvariantViolationError(
                f"groups must list {panel.n_units} indicators of 0 or 1"
            )
        treated = groups == 1
    if not treated.any():
        raise EmptyGroupError("no eventually-treated units for the placebo split")
    return _gatt(panel, treated, (a, b))


def gatt_arrays(panel, treated, periods):
    """The panel's backend, and `_gatt`'s means by (group, period index) and counterfactual as arrays."""
    if not treated.any():
        raise EmptyGroupError("no treated units")
    if treated.all():
        raise EmptyGroupError("no control units")
    backend = _BACKENDS[panel.space_id]
    means = {}
    for d, mask in ((0, ~treated), (1, treated)):
        for t, period in enumerate(periods):
            means[(d, t)] = backend.mean(panel.data[mask, period])[0]
    counterfactual = backend.transport(means[(0, 0)], means[(0, 1)], means[(1, 0)])
    return backend, means, counterfactual


def _gatt(panel, treated, periods):
    """The estimate with `treated` units as the treated group, `periods` as (pre, post)."""
    backend, means, counterfactual = gatt_arrays(panel, treated, periods)
    points = {key: backend.wrap(mean, **panel.fields) for key, mean in means.items()}
    # a transport keeps the fields of the point it moves (the Frobenius kind)
    start = backend.wrap(counterfactual, **backend.unwrap((points[(1, 0)],))[1])
    return GattEstimate(
        effect=Geodesic(start, points[(1, 1)]),
        magnitude=backend.distance(counterfactual, means[(1, 1)]),
        means=points,
    )
