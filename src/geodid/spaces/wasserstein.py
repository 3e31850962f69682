"""1-D Wasserstein space backend.

Distributions are represented by their quantile function evaluated on the
midpoint grid p_k = (k + 0.5) / M, which stays away from the 0/1 endpoints
where quantiles of unbounded distributions diverge.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateTransportError, InvariantViolationError
from . import FORMAT_INLINE, check_overflow, check_points, check_same_shape

POINT_TOL = 1e-10
DEFAULT_GRID_SIZE = 100
PATH_INDEPENDENT = True
FORMAT_QUANTILE = "quantile-csv"
# manifest format whose data are raw draws, not quantile values
FORMAT_SAMPLES = "samples-csv"
FORMATS = (FORMAT_SAMPLES, FORMAT_QUANTILE, FORMAT_INLINE)


def midpoint_grid(m):
    return (np.arange(m) + 0.5) / m


def _nondecreasing(values):
    """`values` (a curve or a (k, M) stack) with each row that drops beyond POINT_TOL replaced, in place, by its running maximum."""
    drops = (np.diff(values, axis=-1) < -POINT_TOL).any(axis=-1)
    if drops.any():
        values[drops] = np.maximum.accumulate(values[drops], axis=-1)
    return values


def validate(stack):
    """Check a (k, M) stack of quantile curves (the tolerance test runs on rows that drop)."""
    if stack.ndim != 2 or stack.shape[1] < 2:
        raise InvariantViolationError("quantile curve needs >= 2 grid values")
    check_points(~np.isfinite(stack).all(axis=1), "quantile curve has non-finite entries")
    drops = (stack[:, 1:] < stack[:, :-1]).any(axis=1)
    if drops.any():
        drops[drops] = (np.diff(stack[drops], axis=1) < -POINT_TOL).any(axis=1)
    check_points(drops, "quantile curve is not non-decreasing")


@dataclass(frozen=True)
class QuantileCurve:
    """Quantile function values on the midpoint grid of [0, 1]."""

    values: np.ndarray
    space_id: str = field(default="wasserstein", init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        validate(values[None])

    @property
    def grid(self):
        return midpoint_grid(len(self.values))


POINT = QuantileCurve


def distance(a, b):
    """Wasserstein-2 distance via midpoint-rule quadrature of the quantile gap."""
    check_same_shape(a.values, b.values)
    diff = a.values - b.values
    return float(np.sqrt(np.mean(diff * diff)))


def interpolate(a, b, t):
    """Point at fraction t of the geodesic from a to b (linear in quantile space)."""
    check_same_shape(a.values, b.values)
    return QuantileCurve((1.0 - t) * a.values + t * b.values)


def stack_points(curves):
    """The curves' values as one (k, M) array; a curve has no other fields."""
    values = [c.values for c in curves]
    check_same_shape(*values)
    return np.array(values), {}


def mean(stack, weights):
    """Weighted Frechet mean of a (k, M) stack: the average quantile function (plain when weights is None), kept monotone."""
    values = np.average(stack, axis=0, weights=weights)
    check_overflow(values, "quantile curve mean")
    return QuantileCurve(_nondecreasing(values)), 0


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
    exact = hi == x[inner]
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
    check_same_shape(alpha.values, beta.values, omega.values)
    if alpha.values[-1] - alpha.values[0] < POINT_TOL:
        raise DegenerateTransportError("alpha is a constant curve; its CDF has no spread")
    p = cdf_eval(alpha, omega.values)
    out = quantile_eval(beta, p)
    # monotone compositions stay monotone; cummax guards against fp dust
    return QuantileCurve(np.maximum.accumulate(out))


def _check_draws(draws):
    """Flag the first of a list of draw arrays that is not 1-D with two draws, then the first with a non-finite draw."""
    sizes = np.array([d.size if d.ndim == 1 else 0 for d in draws])
    check_points(sizes < 2, "need at least two samples")
    finite = np.logical_and.reduceat(np.isfinite(np.concatenate(draws)), np.cumsum(sizes) - sizes)
    check_points(~finite, "sample has non-finite draws")
    return sizes


def _sample_quantiles(draws, grid_size):
    """The (k, grid_size) midpoint-grid quantiles of a (k, s) stack of draws (numpy's linear estimate)."""
    return _nondecreasing(np.quantile(draws, midpoint_grid(grid_size), axis=1).T)


def quantile_from_samples(samples, grid_size=DEFAULT_GRID_SIZE):
    """Empirical quantile curve from raw samples (order statistics, linear interpolation)."""
    draws = np.asarray(samples, dtype=float)
    _check_draws([draws])
    return QuantileCurve(_sample_quantiles(draws[None], grid_size)[0])


def from_data(outcomes, manifest):
    """The panel's curves, flattened, as one (k, M) stack (samples-csv: quantiles of the draws)."""
    flat = [np.ravel(x) for x in outcomes]
    if manifest.get("format") == FORMAT_SAMPLES:
        sizes = _check_draws(flat)
        grid_size = manifest.get("grid_size", DEFAULT_GRID_SIZE)
        stack = np.empty((len(flat), grid_size))
        # one kernel call per draw count, each outcome keeping its row
        for s in np.unique(sizes):
            rows = np.flatnonzero(sizes == s)
            stack[rows] = _sample_quantiles(np.array([flat[i] for i in rows]), grid_size)
        return stack, {}
    check_same_shape(*flat)
    return np.array(flat), {}


def to_data(values):
    return values.tolist()


def to_jsonable(curve):
    return {"space": "wasserstein", "quantiles": to_data(curve.values)}


def manifest_fields(shape):
    return {"grid_size": shape[0]}
