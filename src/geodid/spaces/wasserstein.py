"""1-D Wasserstein space backend.

Distributions are represented by their quantile function evaluated on the
midpoint grid p_k = (k + 0.5) / M, which stays away from the 0/1 endpoints
where quantiles of unbounded distributions diverge.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    DegenerateTransportError,
    InvariantViolationError,
    SpaceMismatchError,
)

POINT_TOL = 1e-10
DEFAULT_GRID_SIZE = 100
PATH_INDEPENDENT = True
# manifest format whose data are raw draws, not quantile values
FORMAT_SAMPLES = "samples-csv"


def midpoint_grid(m):
    return (np.arange(m) + 0.5) / m


def pav_projection(values):
    """Project onto non-decreasing sequences (least squares, pool adjacent violators)."""
    v = np.asarray(values, dtype=float)
    level = v.copy()
    weight = np.ones_like(v)
    n = len(v)
    # blocks[i] holds the start index of the block ending at position i
    start = np.arange(n)
    j = 0
    for i in range(1, n):
        j += 1
        level[j] = v[i]
        weight[j] = 1.0
        start[j] = i
        while j > 0 and level[j - 1] > level[j]:
            total = weight[j - 1] + weight[j]
            level[j - 1] = (weight[j - 1] * level[j - 1] + weight[j] * level[j]) / total
            weight[j - 1] = total
            j -= 1
    out = np.empty(n)
    pos = n
    while j >= 0:
        out[start[j]:pos] = level[j]
        pos = start[j]
        j -= 1
    return out


@dataclass(frozen=True)
class QuantileCurve:
    """Quantile function values on the midpoint grid of [0, 1]."""

    values: np.ndarray
    space_id: str = field(default="wasserstein", init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) < 2:
            raise InvariantViolationError("quantile curve needs >= 2 grid values")
        if not np.all(np.isfinite(values)):
            raise InvariantViolationError("quantile curve has non-finite entries")
        if np.any(np.diff(values) < -POINT_TOL):
            raise InvariantViolationError("quantile curve is not non-decreasing")

    @property
    def grid_size(self):
        return len(self.values)

    @property
    def grid(self):
        return midpoint_grid(len(self.values))


def _check_same_grid(*curves):
    m = curves[0].grid_size
    for c in curves[1:]:
        if c.grid_size != m:
            raise SpaceMismatchError(
                f"quantile grid mismatch: {m} vs {c.grid_size}"
            )


def distance(a, b):
    """Wasserstein-2 distance via midpoint-rule quadrature of the quantile gap."""
    _check_same_grid(a, b)
    diff = a.values - b.values
    return float(np.sqrt(np.mean(diff * diff)))


def interpolate(a, b, t):
    """Point at fraction t of the geodesic from a to b (linear in quantile space)."""
    _check_same_grid(a, b)
    return QuantileCurve((1.0 - t) * a.values + t * b.values)


def mean(points, weights):
    """Weighted Frechet mean: the average quantile function, kept monotone."""
    values = np.average([p.values for p in points], axis=0, weights=weights)
    if np.any(np.diff(values) < -1e-10):
        values = pav_projection(values)
    return QuantileCurve(values), 0


def cdf_eval(curve, x):
    """Evaluate the CDF implied by a quantile curve at points x.

    Monotone linear interpolation of the inverse of the curve; flat segments
    resolve to the leftmost grid probability and output is clamped to
    [p_0, p_{M-1}].
    """
    values = curve.values
    grid = curve.grid
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted(values, x, side="left")
    out = np.empty(x.shape)
    below = idx == 0
    above = idx == len(values)
    out[below] = grid[0]
    out[above] = grid[-1]
    inner = ~(below | above)
    i = idx[inner]
    lo, hi = values[i - 1], values[i]
    exact = np.isclose(hi, x[inner], rtol=0.0, atol=0.0)
    frac = np.where(hi > lo, (x[inner] - lo) / np.where(hi > lo, hi - lo, 1.0), 1.0)
    out[inner] = np.where(exact, grid[i], grid[i - 1] + frac * (grid[i] - grid[i - 1]))
    return out


def quantile_eval(curve, p):
    """Evaluate the quantile curve at probabilities p by linear interpolation."""
    return np.interp(np.asarray(p, dtype=float), curve.grid, curve.values)


def transport(alpha, beta, omega):
    """Optimal-transport push of omega along the geodesic from alpha to beta.

    The output quantile function is the composition of beta's quantile
    function, alpha's CDF and omega's quantile function.
    """
    _check_same_grid(alpha, beta, omega)
    if alpha.values[-1] - alpha.values[0] < POINT_TOL:
        raise DegenerateTransportError("alpha is a constant curve; its CDF has no spread")
    p = cdf_eval(alpha, omega.values)
    out = quantile_eval(beta, p)
    # monotone compositions stay monotone; cummax guards against fp dust
    return QuantileCurve(np.maximum.accumulate(out))


def quantile_from_samples(samples, grid_size=DEFAULT_GRID_SIZE):
    """Empirical quantile curve from raw samples (order statistics, linear interpolation)."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or len(samples) < 2:
        raise InvariantViolationError("need at least two samples")
    values = np.quantile(samples, midpoint_grid(grid_size))
    if np.any(np.diff(values) < -POINT_TOL):
        values = pav_projection(values)
    return QuantileCurve(values)


def from_data(data, manifest):
    flat = np.asarray(data, dtype=float).ravel()
    if manifest.get("format") == FORMAT_SAMPLES:
        return quantile_from_samples(flat, manifest.get("grid_size", DEFAULT_GRID_SIZE))
    return QuantileCurve(flat)


def to_data(curve):
    return [float(x) for x in curve.values]


def to_jsonable(curve):
    return {"space": "wasserstein", "quantiles": to_data(curve)}


def manifest_fields(curve):
    return {"grid_size": curve.grid_size}
