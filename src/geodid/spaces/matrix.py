"""Frobenius-metric backend for graph Laplacians and covariance matrices.

This is a linear space: geodesics are line segments and the transport map is
plain matrix addition.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    InvariantViolationError,
    KindViolationWarning,
    SpaceMismatchError,
)

SYMMETRY_TOL = 1e-10
LAPLACIAN_TOL = 1e-8
PSD_TOL = 1e-8

KIND_LAPLACIAN = "laplacian"
KIND_COVARIANCE = "covariance"
KIND_FREE = "free"
PATH_INDEPENDENT = True


def _kind_ok(entries, kind):
    if kind == KIND_LAPLACIAN:
        if np.any(np.abs(entries.sum(axis=1)) > LAPLACIAN_TOL):
            return False
        off = entries[~np.eye(len(entries), dtype=bool)]
        return not np.any(off > LAPLACIAN_TOL)
    if kind == KIND_COVARIANCE:
        return float(np.linalg.eigvalsh(entries)[0]) >= -PSD_TOL
    return True


@dataclass(frozen=True)
class SymmetricMatrixPoint:
    """Symmetric matrix, optionally constrained to Laplacian or covariance structure."""

    entries: np.ndarray
    kind: str = KIND_FREE
    space_id: str = field(default="frobenius", init=False, repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvariantViolationError("matrix point must be square")
        if not np.all(np.isfinite(entries)):
            raise InvariantViolationError("matrix has non-finite entries")
        if np.max(np.abs(entries - entries.T)) > SYMMETRY_TOL:
            raise InvariantViolationError("matrix is not symmetric")
        if self.kind not in (KIND_LAPLACIAN, KIND_COVARIANCE, KIND_FREE):
            raise InvariantViolationError(f"unknown matrix kind {self.kind!r}")
        if not _kind_ok(entries, self.kind):
            raise InvariantViolationError(f"matrix violates {self.kind} structure")

    @property
    def size(self):
        return self.entries.shape[0]


def _check_same_shape(*points):
    m = points[0].size
    for p in points[1:]:
        if p.size != m:
            raise SpaceMismatchError(f"matrix size mismatch: {m} vs {p.size}")


def distance(a, b):
    """Frobenius distance ||a - b||_F."""
    _check_same_shape(a, b)
    return float(np.linalg.norm(a.entries - b.entries))


def interpolate(a, b, t):
    """Point at fraction t of the line segment from a to b."""
    _check_same_shape(a, b)
    return _result((1.0 - t) * a.entries + t * b.entries, a.kind)


def transport(alpha, beta, omega):
    """Additive transport: omega + (beta - alpha)."""
    _check_same_shape(alpha, beta, omega)
    return _result(omega.entries + beta.entries - alpha.entries, omega.kind)


def _result(entries, kind):
    entries = 0.5 * (entries + entries.T)
    if not _kind_ok(entries, kind):
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


def mean(points, weights):
    """Weighted Frechet mean: the entrywise average, of the points' common kind if any."""
    entries = np.average([p.entries for p in points], axis=0, weights=weights)
    kinds = {p.kind for p in points}
    kind = kinds.pop() if len(kinds) == 1 else KIND_FREE
    return _result(entries, kind), 0


def from_data(data, manifest):
    return SymmetricMatrixPoint(
        np.asarray(data, dtype=float), kind=manifest.get("matrix_kind", KIND_FREE)
    )


def to_data(point):
    return [[float(x) for x in row] for row in point.entries]


def to_jsonable(point):
    return {"space": "frobenius", "kind": point.kind, "entries": to_data(point)}


def manifest_fields(point):
    return {"matrix_kind": point.kind}
