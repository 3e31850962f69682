"""Positive-orthant unit-sphere backend for compositional data."""

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    DegenerateTangentError,
    InvariantViolationError,
    NonConvergenceError,
    OrthantExitWarning,
)
from . import FORMAT_INLINE, bare, check_points, stack_arrays

UNIT_TOL = 1e-10
ORTHANT_SLACK = 1e-12
# Gamma_{zeta,beta} o Gamma_{alpha,zeta} != Gamma_{alpha,beta}: staggered cells recurse
PATH_INDEPENDENT = False
MEAN_TOL = 1e-10
MEAN_MAX_ITER = 200
FORMAT_COMPOSITION = "composition-csv"
FORMATS = (FORMAT_COMPOSITION, FORMAT_INLINE)


def validate(stack):
    """Check a (k, d) stack of unit vectors on the positive orthant (NaN fails the norm)."""
    if stack.ndim != 2 or stack.shape[1] < 2:
        raise InvariantViolationError("sphere point needs >= 2 coordinates")
    # np.linalg.norm's arithmetic without its dispatch, which costs more than one point's check
    off_sphere = ~(abs(np.sqrt(np.add.reduce(stack * stack, axis=1)) - 1.0) <= UNIT_TOL)
    check_points(off_sphere, "sphere point is not unit norm")
    check_points((stack < -ORTHANT_SLACK).any(axis=1), "sphere point leaves the positive orthant")


@dataclass(frozen=True)
class UnitCompositionPoint:
    """Unit vector on the positive orthant of the sphere."""

    coords: np.ndarray
    space_id: str = field(default="sphere", init=False, repr=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        validate(coords[None])

    @property
    def dim(self):
        return len(self.coords)


def _angle(x, y):
    """Great-circle angle arccos(x'y) along the last axis, through the chord.

    2 arcsin(|x - y| / 2) is the same angle but stays accurate for nearly
    identical points, where arccos of the dot product loses half the
    significant digits (about 1.5e-8 where the angle is 0).
    """
    half_chord = 0.5 * np.linalg.norm(x - y, axis=-1)
    return 2.0 * np.arcsin(np.minimum(half_chord, 1.0))


def distance(z1, z2):
    """Great-circle distance arccos(z1'z2), evaluated as `_angle`."""
    return float(_angle(z1, z2))


def interpolate(z1, z2, t):
    """Slerp: point at fraction t of the geodesic from z1 to z2."""
    return exp_map(z1, t * log_map(z1, z2))


def _finish(coords):
    coords = coords / np.linalg.norm(coords)
    if np.any(coords < -ORTHANT_SLACK):
        warnings.warn(
            "result left the positive orthant of the sphere", OrthantExitWarning
        )
    return coords


def transport(alpha, beta, omega):
    """Rotate omega along the geodesic direction determined by alpha and beta."""
    theta = _angle(alpha, beta)
    if theta < 1e-14:
        return omega
    v_ab = beta - np.dot(alpha, beta) * alpha
    v = v_ab - np.dot(omega, v_ab) * omega
    nv = np.linalg.norm(v)
    if nv < 1e-12:
        raise DegenerateTangentError(
            "tangent projection vanished; transport direction undefined at omega"
        )
    coords = np.cos(theta) * omega + np.sin(theta) * v / nv
    return _finish(coords)


def wrap(coords):
    """The point of coordinates that `_finish` normalised or `validate` checked (not validated again)."""
    return bare(UnitCompositionPoint, coords=coords)


def unwrap(points):
    """The points' coordinates as one (k, d) stack; a sphere point has no other fields."""
    return stack_arrays([p.coords for p in points]), {}


def _embed(shares):
    """Square-root embedding of a (k, d) stack of compositions (rows summing to 1)."""
    # ufunc reductions, not the ndarray methods: embed_composition passes one row per call
    check_points(np.logical_or.reduce(shares < -1e-8, axis=1), "composition has a negative entry")
    total = np.add.reduce(shares, axis=1, keepdims=True)
    off = abs(total - 1.0) > 1e-8
    if np.count_nonzero(off):
        check_points(off, f"composition sums to {total[off.argmax(), 0]}, not 1")
    return np.sqrt(np.maximum(shares, 0.0) / total)


def embed_composition(shares):
    """Square-root embedding of a composition (shares summing to 1)."""
    return UnitCompositionPoint(_embed(np.asarray(shares, dtype=float).reshape(1, -1))[0])


def unembed(point):
    """Inverse of the square-root embedding: shares[j] = coords[j]^2."""
    return point.coords**2


def log_map(base, points):
    """Tangent vectors at `base` pointing to `points` (one point or a (k, d)
    stack), each of length d(base, point); a point within 1e-14 of `base`
    gives 0, without a 0/0."""
    theta = _angle(base, points)[..., None]
    u = points - np.cos(theta) * base
    norms = np.linalg.norm(u, axis=-1, keepdims=True)
    return np.divide(theta * u, norms, out=np.zeros_like(u), where=theta >= 1e-14)


def exp_map(base, tangent):
    """Exponential map at `base` applied to a tangent vector."""
    norm = np.linalg.norm(tangent)
    if norm < 1e-16:
        return base
    coords = np.cos(norm) * base + np.sin(norm) * tangent / norm
    return _finish(coords)


def mean(coords):
    """Karcher mean of a (k, d) stack by unit-step tangent-space averaging."""
    w = np.full(len(coords), 1.0 / len(coords))
    extrinsic = w @ coords
    if np.linalg.norm(extrinsic) < 1e-8:
        # near-degenerate configuration; start from the first point instead
        current = coords[0]
    else:
        current = _finish(extrinsic)
    for iteration in range(1, MEAN_MAX_ITER + 1):
        tangent = w @ log_map(current, coords)
        step = float(np.linalg.norm(tangent))
        current = exp_map(current, tangent)
        if step < MEAN_TOL:
            return current, iteration
    raise NonConvergenceError(
        f"sphere mean did not converge in {MEAN_MAX_ITER} iterations "
        f"(last step {step:.3e})",
        iterations=MEAN_MAX_ITER,
        last_step=step,
    )


def from_data(outcomes, manifest):
    """The panel's compositions, flattened, as one (k, d) stack of embeddings."""
    shares = [np.ravel(x) for x in outcomes]
    return _embed(stack_arrays(shares)), {}


def to_data(coords):
    return (coords**2).tolist()


def to_jsonable(point):
    return {"space": "sphere", "coords": point.coords.tolist(), "shares": to_data(point.coords)}


def manifest_fields(shape):
    return {}
