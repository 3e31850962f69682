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
from . import FORMAT_INLINE, bare, check_points, stack_arrays, stack_flat

UNIT_TOL = 1e-10
ORTHANT_SLACK = 1e-12
# Gamma_{zeta,beta} o Gamma_{alpha,zeta} != Gamma_{alpha,beta}: staggered cells recurse
PATH_INDEPENDENT = False
MEAN_TOL = 1e-10
MEAN_MAX_ITER = 200
# points that `means` iterates together: enough to spread numpy's cost per
# call over many small stacks, few enough that a batch's arrays stay in cache
BATCH_ROWS = 1 << 14
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


@dataclass(frozen=True, eq=False)
class UnitCompositionPoint:
    """Unit vector on the positive orthant of the sphere."""

    coords: np.ndarray
    space_id: str = field(default="sphere", init=False, repr=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        validate(coords[None])


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


def _warn_exits(points):
    """One OrthantExitWarning per row of a (k, d) stack that left the positive orthant."""
    for _ in range(np.count_nonzero((points < -ORTHANT_SLACK).any(axis=1))):
        warnings.warn("result left the positive orthant of the sphere", OrthantExitWarning)


def _finish(coords):
    coords = coords / np.linalg.norm(coords)
    if np.any(coords < -ORTHANT_SLACK):
        _warn_exits(coords[None])
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
    # the clipped shares' total, so that a tiny negative share embeds on the sphere
    shares = np.maximum(shares, 0.0)
    total = np.add.reduce(shares, axis=1, keepdims=True)
    off = abs(total - 1.0) > 1e-8
    if np.count_nonzero(off):
        check_points(off, f"composition sums to {total[off.argmax(), 0]}, not 1")
    return np.sqrt(shares / total)


def embed_composition(shares):
    """Square-root embedding of a composition (shares summing to 1)."""
    coords = _embed(np.asarray(shares, dtype=float).reshape(1, -1))
    # _embed's result is a square root, never off the orthant, so of
    # validate's tests only the length and the norm (NaN for a NaN share)
    # can fail; validate runs to raise its error when one does
    norm = np.sqrt(np.add.reduce(coords * coords, axis=1))[0]
    if coords.shape[1] < 2 or not abs(norm - 1.0) <= UNIT_TOL:
        validate(coords)
    return wrap(coords[0])


def unembed(point):
    """Inverse of the square-root embedding: shares[j] = coords[j]^2."""
    return point.coords**2


def log_map(base, points):
    """Tangent vectors at `base` pointing to `points` (one point or a (k, d)
    stack; `base` is one point or a stack of one per point), each of length
    d(base, point); a point within 1e-14 of its base gives 0, without a 0/0."""
    theta = _angle(base, points)[..., None]
    u = points - np.cos(theta) * base
    norms = np.linalg.norm(u, axis=-1, keepdims=True)
    return np.divide(theta * u, norms, out=np.zeros_like(u), where=theta >= 1e-14)


def exp_map(base, tangent):
    """Exponential map at `base` applied to tangent vectors (one vector or a
    (k, d) stack; `base` is one point or a stack of one per vector), each
    result normalised; a step under 1e-16 leaves its row at its base."""
    step = np.linalg.norm(tangent, axis=-1, keepdims=True)
    moves = step >= 1e-16
    coords = np.cos(step) * base + np.sin(step) * tangent / np.where(moves, step, 1.0)
    coords /= np.linalg.norm(coords, axis=-1, keepdims=True)
    # a boolean index adds a row axis to one point, so both shapes pass rows
    _warn_exits(coords[moves[..., 0]])
    return np.where(moves, coords, base)


def means(stacks):
    """Karcher mean and iteration count of each (k, d) stack of an iterable,
    by unit-step tangent-space averaging, the stacks iterated together in
    batches of at most `BATCH_ROWS` points (or one larger stack) by `_karcher`.

    A stack's mean has the same bits alone as in any batch, so the batching
    changes no result; it bounds the memory a call holds. NonConvergenceError
    names the first stack still moving after MEAN_MAX_ITER steps.
    """
    results, batch, rows = [], [], 0
    for stack in stacks:
        if batch and rows + len(stack) > BATCH_ROWS:
            results += _karcher(batch)
            batch, rows = [], 0
        batch.append(stack)
        rows += len(stack)
    return results + _karcher(batch) if batch else results


def _karcher(stacks):
    """`means` of one batch of stacks, iterated together.

    A stack starts from its normalised extrinsic mean, or from its first
    point when that mean nearly vanishes. Each step moves it by the average
    of its points' log maps, and a stack is set aside once its own step falls
    under MEAN_TOL. Every sum over a stack's rows is taken over those rows
    alone (`np.add.reduceat`), so a stack's mean has the same bits alone as in
    any batch.
    """
    sizes = np.array([len(stack) for stack in stacks])
    coords = np.concatenate(stacks)
    starts = np.cumsum(sizes) - sizes
    extrinsic = np.add.reduceat(coords, starts, axis=0) / sizes[:, None]
    norms = np.linalg.norm(extrinsic, axis=1, keepdims=True)
    # near-degenerate configuration; start from the first point instead
    degenerate = norms < 1e-8
    current = np.where(degenerate, coords[starts], extrinsic / np.where(degenerate, 1.0, norms))
    _warn_exits(current[~degenerate[:, 0]])
    result = np.empty_like(current)
    iterations = np.zeros(len(stacks), dtype=int)
    active = np.arange(len(stacks))
    for iteration in range(1, MEAN_MAX_ITER + 1):
        owner = np.repeat(np.arange(len(active)), sizes)
        tangent = np.add.reduceat(log_map(current[owner], coords), starts, axis=0) / sizes[:, None]
        current = exp_map(current, tangent)
        step = np.linalg.norm(tangent, axis=1)
        done = step < MEAN_TOL
        if done.any():
            result[active[done]] = current[done]
            iterations[active[done]] = iteration
            if done.all():
                return list(zip(result, iterations.tolist()))
            keep = ~done
            coords = coords[np.repeat(keep, sizes)]
            active, current, sizes = active[keep], current[keep], sizes[keep]
            starts = np.cumsum(sizes) - sizes
    last_step = float(step[~done][0])
    raise NonConvergenceError(
        f"sphere mean did not converge in {MEAN_MAX_ITER} iterations "
        f"(last step {last_step:.3e})",
        iterations=MEAN_MAX_ITER,
        last_step=last_step,
    )


def from_data(outcomes, manifest):
    """The panel's compositions, flattened, as one (k, d) stack of embeddings."""
    return _embed(stack_flat(outcomes)), {}


def to_data(coords):
    """The shares of a point or a stack: the squared coordinates."""
    return coords**2


def to_jsonable(point):
    return {"space": "sphere", "coords": point.coords.tolist(), "shares": to_data(point.coords).tolist()}


def manifest_fields(shape):
    return {}
