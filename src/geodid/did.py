"""The DID step on arrays, `walks`, and the two-period estimator and placebo
diagnostic that take it."""

from dataclasses import dataclass
from itertools import islice

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


def take_means(panel, keys):
    """The backend mean of the panel's units in each (unit mask, period) of `keys`.

    Each distinct (packed mask bits, period) is averaged once, by one batched
    `backend.means` call in order of first appearance. The call takes the
    stacks as a generator, so that a backend holds only the rows it is
    averaging, not every gathered stack at once.
    """
    # a bit per unit: a call that plans many cells holds a tag per key
    tags = [(np.packbits(mask).tobytes(), period) for mask, period in keys]
    distinct = dict(zip(tags, keys))
    stacks = (panel.data[mask, period] for mask, period in distinct.values())
    results = _BACKENDS[panel.space_id].means(stacks)
    means = {tag: mean for tag, (mean, _) in zip(distinct, results)}
    return [means[tag] for tag in tags]


def walks(panel, groups):
    """The DID step on arrays for each (treated mask, control mask, periods) of
    `groups`: (path, end, trend), the transport path of the treated mean at
    `periods[0]` along the control means `trend` at each period, and the treated
    mean at `periods[-1]`, every mean from one `take_means` call."""
    keys = []
    for treated, control, periods in groups:
        if not treated.any():
            raise EmptyGroupError("no treated units")
        if not control.any():
            raise EmptyGroupError("no control units")
        keys += [(treated, periods[0]), (treated, periods[-1])] + [(control, p) for p in periods]
    backend = _BACKENDS[panel.space_id]
    means = iter(take_means(panel, keys))
    results = []
    for _, _, periods in groups:
        base, end, *trend = islice(means, 2 + len(periods))
        path = [base]
        for prev, curr in zip(trend, trend[1:]):
            path.append(backend.transport(prev, curr, path[-1]))
        results.append((path, end, trend))
    return results


def _gatt(panel, treated, periods):
    """The estimate with `treated` units as the treated group, `periods` as (pre, post)."""
    backend = _BACKENDS[panel.space_id]
    [((base, counterfactual), end, trend)] = walks(panel, [(treated, ~treated, periods)])
    arrays = {(0, 0): trend[0], (0, 1): trend[1], (1, 0): base, (1, 1): end}
    points = {key: backend.wrap(mean, **panel.fields) for key, mean in arrays.items()}
    # a transport keeps the fields of the point it moves (the Frobenius kind)
    start = backend.wrap(counterfactual, **backend.unwrap((points[(1, 0)],))[1])
    return GattEstimate(
        effect=Geodesic(start, points[(1, 1)]),
        magnitude=backend.distance(counterfactual, end),
        means=points,
    )
