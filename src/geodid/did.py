"""The DID step on arrays, `walks`, the same step as points, `effects`, and the
two-period estimator and placebo diagnostic that take it."""

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
    mean at `periods[-1]`, every mean from one `take_means` call.

    The walks advance one period at a time: step j of every walk that has one
    is taken by one `transport` call on the stacks of those walks' points.
    """
    keys = []
    for treated, control, periods in groups:
        if not treated.any():
            raise EmptyGroupError("no treated units")
        if not control.any():
            raise EmptyGroupError("no control units")
        keys += [(treated, periods[0]), (treated, periods[-1])] + [(control, p) for p in periods]
    backend = _BACKENDS[panel.space_id]
    means = take_means(panel, keys)
    results, start = [], 0
    for _, _, periods in groups:
        base, end, *trend = means[start : start + 2 + len(periods)]
        start += 2 + len(periods)
        results.append(([base], end, trend))
    running = results
    for j in range(1, max((len(trend) for _, _, trend in results), default=0)):
        running = [walk for walk in running if len(walk[2]) > j]
        moved = backend.transport(
            np.array([trend[j - 1] for _, _, trend in running]),
            np.array([trend[j] for _, _, trend in running]),
            np.array([path[-1] for path, _, _ in running]),
        )
        for (path, _, _), point in zip(running, moved):
            path.append(point)
    return results


def effects(panel, groups):
    """`walks` as points: for each group, (effect, magnitude, path, trend), the
    transport path as points, the geodesic from its last point to the treated
    mean at `periods[-1]`, its length (every one from one `distance` call), and
    the control means as arrays. A mean that several groups share, one array of
    `take_means`, is wrapped once with the panel's fields."""
    backend = _BACKENDS[panel.space_id]
    arrays = walks(panel, groups)
    magnitudes = backend.distance(
        np.array([path[-1] for path, _, _ in arrays]), np.array([end for _, end, _ in arrays])
    ).tolist()
    wrapped, results = {}, []
    for (path, end, trend), magnitude in zip(arrays, magnitudes):
        for mean in (path[0], end):
            if id(mean) not in wrapped:
                wrapped[id(mean)] = backend.wrap(mean, **panel.fields)
        points, fields = [wrapped[id(path[0])]], panel.fields
        # a transport keeps the fields of the point it moves (the Frobenius
        # kind, which a point that breaks it gives up); the other spaces have none
        for beta in path[1:]:
            if fields:
                fields = backend.unwrap(points[-1:])[1]
            points.append(backend.wrap(beta, **fields))
        results.append((Geodesic(points[-1], wrapped[id(end)]), magnitude, tuple(points), trend))
    return results


def _gatt(panel, treated, periods):
    """The estimate with `treated` units as the treated group, `periods` as (pre, post)."""
    backend = _BACKENDS[panel.space_id]
    [(effect, magnitude, (base, _), trend)] = effects(panel, [(treated, ~treated, periods)])
    control = [backend.wrap(mean, **panel.fields) for mean in trend]
    means = {(0, 0): control[0], (0, 1): control[1], (1, 0): base, (1, 1): effect.end}
    return GattEstimate(effect=effect, magnitude=magnitude, means=means)
