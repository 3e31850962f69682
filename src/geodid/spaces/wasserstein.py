"""1-D Wasserstein space backend.

Distributions are represented by their quantile function evaluated on the
midpoint grid p_k = (k + 0.5) / M, which stays away from the 0/1 endpoints
where quantiles of unbounded distributions diverge.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateTransportError, InvariantViolationError, ParseError
from . import FORMAT_INLINE, bare, check_overflow, check_points, closed_form_means, stack_arrays, stack_flat

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


@dataclass(frozen=True, eq=False)
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


def distance(a, b):
    """Wasserstein-2 distance of each row of two (k, M) stacks, by midpoint-rule quadrature of the quantile gap."""
    diff = a - b
    return np.sqrt(np.mean(diff * diff, axis=-1))


def interpolate(a, b, t):
    """Curve at fraction t of the geodesic from a to b (linear), validated: rounding can make it drop."""
    values = (1.0 - t) * a + t * b
    validate(values[None])
    return values


def wrap(values):
    """The point of a curve that is finite and non-decreasing by construction or check (not validated again)."""
    return bare(QuantileCurve, values=values)


def unwrap(curves):
    """The curves' values as one (k, M) stack; a curve has no other fields."""
    return stack_arrays([c.values for c in curves]), {}


def _mean(stack):
    """Frechet mean of a (k, M) stack, the average quantile function kept monotone, and its iteration count (0)."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = stack.mean(axis=0)
    check_overflow(values, "quantile curve mean")
    return _nondecreasing(values), 0


def cdf_eval(values, x):
    """Evaluate the CDF implied by each quantile curve of a (k, M) stack at the
    points of the same row of a (k, N) stack x.

    Monotone linear interpolation of the inverse of the curve; flat segments
    resolve to the leftmost grid probability and output is clamped to
    [p_0, p_{M-1}]. `np.searchsorted` takes one curve, so it runs row by row.
    """
    m = values.shape[-1]
    grid = midpoint_grid(m)
    idx = np.array([np.searchsorted(v, row, side="left") for v, row in zip(values, x)])
    out = np.empty(x.shape)
    below = idx == 0
    above = idx == m
    out[below] = grid[0]
    out[above] = grid[-1]
    inner = ~(below | above)
    i = idx[inner]
    rows = np.nonzero(inner)[0]
    lo, hi = values[rows, i - 1], values[rows, i]
    xs = x[inner]
    exact = hi == xs
    frac = np.where(hi > lo, (xs - lo) / np.where(hi > lo, hi - lo, 1.0), 1.0)
    out[inner] = np.where(exact, grid[i], grid[i - 1] + frac * (grid[i] - grid[i - 1]))
    return out


def transport(alpha, beta, omega):
    """Optimal-transport push of each row of omega along the geodesic from the
    row of alpha to the row of beta ((k, M) stacks).

    The output quantile function is the composition of beta's quantile
    function, alpha's CDF and omega's quantile function. `np.interp` takes one
    curve, so it runs row by row.
    """
    if (alpha[:, -1] - alpha[:, 0] < POINT_TOL).any():
        raise DegenerateTransportError("alpha is a constant curve; its CDF has no spread")
    grid = midpoint_grid(beta.shape[-1])
    out = np.array([np.interp(p, grid, b) for p, b in zip(cdf_eval(alpha, omega), beta)])
    # monotone compositions stay monotone; cummax guards against fp dust
    return np.maximum.accumulate(out, axis=-1)


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


means = closed_form_means(_mean)


def from_data(outcomes, manifest):
    """The panel's curves, flattened, as one (k, M) stack (samples-csv: quantiles
    of the draws; any other format: of the manifest's `grid_size`, if it has one)."""
    if manifest.get("format") == FORMAT_SAMPLES:
        flat = [x.ravel() for x in outcomes]
        sizes = _check_draws(flat)
        grid_size = manifest.get("grid_size", DEFAULT_GRID_SIZE)
        stack = np.empty((len(flat), grid_size))
        # one kernel call per draw count, each outcome keeping its row
        for s in np.unique(sizes):
            rows = np.flatnonzero(sizes == s)
            stack[rows] = _sample_quantiles(np.array([flat[i] for i in rows]), grid_size)
        return stack, {}
    stack = stack_flat(outcomes)
    if manifest.get("grid_size", stack.shape[1]) != stack.shape[1]:
        raise ParseError(f"'grid_size' is {manifest['grid_size']}, but the curves hold {stack.shape[1]} values")
    return stack, {}


def to_data(values):
    return values


def to_jsonable(curve):
    return {"space": "wasserstein", "quantiles": curve.values.tolist()}


def manifest_fields(shape):
    return {"grid_size": shape[0]}
