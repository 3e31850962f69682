"""Frobenius-metric backend for graph Laplacians and covariance matrices.

This is a linear space: geodesics are line segments and the transport map is
plain matrix addition.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvariantViolationError, KindViolationWarning
from . import FORMAT_INLINE, check_points, check_same_shape

SYMMETRY_TOL = 1e-10
LAPLACIAN_TOL = 1e-8
PSD_TOL = 1e-8

KIND_LAPLACIAN = "laplacian"
KIND_COVARIANCE = "covariance"
KIND_FREE = "free"
PATH_INDEPENDENT = True
FORMAT_MATRIX_CSV = "matrix-csv"
FORMAT_MATRIX_JSON = "matrix-json"
FORMATS = (FORMAT_MATRIX_CSV, FORMAT_MATRIX_JSON, FORMAT_INLINE)


def _kind_ok(stack, kind):
    """Per matrix of a (k, m, m) stack: whether it has `kind`'s structure."""
    if kind == KIND_LAPLACIAN:
        off = ~np.eye(stack.shape[-1], dtype=bool)
        rows_sum_to_zero = ~(np.abs(stack.sum(axis=-1)) > LAPLACIAN_TOL).any(axis=-1)
        return rows_sum_to_zero & ~((stack > LAPLACIAN_TOL) & off).any(axis=(1, 2))
    if kind == KIND_COVARIANCE:
        return np.linalg.eigvalsh(stack)[:, 0] >= -PSD_TOL
    return np.ones(len(stack), dtype=bool)


def validate(stack, kind):
    """Check a (k, m, m) stack of symmetric matrices of one kind."""
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvariantViolationError("matrix point must be square")
    check_points(~np.isfinite(stack).all(axis=(1, 2)), "matrix has non-finite entries")
    gap = stack - stack.swapaxes(1, 2)
    check_points(np.abs(gap, out=gap).max(axis=(1, 2)) > SYMMETRY_TOL, "matrix is not symmetric")
    if kind not in (KIND_LAPLACIAN, KIND_COVARIANCE, KIND_FREE):
        raise InvariantViolationError(f"unknown matrix kind {kind!r}")
    check_points(~_kind_ok(stack, kind), f"matrix violates {kind} structure")


@dataclass(frozen=True)
class SymmetricMatrixPoint:
    """Symmetric matrix, optionally constrained to Laplacian or covariance structure."""

    entries: np.ndarray
    kind: str = KIND_FREE
    space_id: str = field(default="frobenius", init=False, repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        validate(entries[None], self.kind)

    @property
    def size(self):
        return self.entries.shape[0]


POINT = SymmetricMatrixPoint


def distance(a, b):
    """Frobenius distance ||a - b||_F."""
    check_same_shape(a.entries, b.entries)
    return float(np.linalg.norm(a.entries - b.entries))


def interpolate(a, b, t):
    """Point at fraction t of the line segment from a to b."""
    check_same_shape(a.entries, b.entries)
    return _result((1.0 - t) * a.entries + t * b.entries, a.kind)


def transport(alpha, beta, omega):
    """Additive transport: omega + (beta - alpha)."""
    check_same_shape(alpha.entries, beta.entries, omega.entries)
    return _result(omega.entries + beta.entries - alpha.entries, omega.kind)


def _result(entries, kind):
    entries = 0.5 * (entries + entries.T)
    if not _kind_ok(entries[None], kind)[0]:
        warnings.warn(
            f"result violates {kind} structure; kept with kind='free'",
            KindViolationWarning,
        )
        kind = KIND_FREE
    return SymmetricMatrixPoint(entries, kind=kind)


def laplacian_from_adjacency(weights):
    """Graph Laplacian D - W of a nonnegative symmetric weight matrix."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise InvariantViolationError("adjacency matrix must be square")
    if np.max(np.abs(weights - weights.T)) > SYMMETRY_TOL:
        raise InvariantViolationError("adjacency matrix must be symmetric")
    if np.any(np.abs(np.diag(weights)) > 0):
        raise InvariantViolationError("adjacency matrix must have zero diagonal")
    if np.any(weights < 0):
        raise InvariantViolationError("edge weights must be nonnegative")
    lap = -weights
    np.fill_diagonal(lap, weights.sum(axis=1))
    return SymmetricMatrixPoint(lap, kind=KIND_LAPLACIAN)


def stack_points(points):
    """The points' entries as one (k, m, m) array, and their common kind (else free)."""
    entries = [p.entries for p in points]
    check_same_shape(*entries)
    kinds = {p.kind for p in points}
    return np.array(entries), {"kind": kinds.pop() if len(kinds) == 1 else KIND_FREE}


def mean(stack, weights, kind):
    """Weighted Frechet mean of a (k, m, m) stack: the entrywise average."""
    return _result(np.average(stack, axis=0, weights=weights), kind), 0


def from_data(outcomes, manifest):
    """The panel's matrices as one (k, m, m) stack, of the manifest's kind."""
    check_same_shape(*outcomes)
    return np.array(outcomes), {"kind": manifest.get("matrix_kind", KIND_FREE)}


def to_data(entries):
    return entries.tolist()


def to_jsonable(point):
    return {"space": "frobenius", "kind": point.kind, "entries": to_data(point.entries)}


def manifest_fields(shape, kind):
    return {"matrix_kind": kind}
