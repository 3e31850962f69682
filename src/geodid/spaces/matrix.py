"""Frobenius-metric backend for graph Laplacians and covariance matrices.

This is a linear space: geodesics are line segments and the transport map is
plain matrix addition.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvariantViolationError, KindViolationWarning
from . import FORMAT_INLINE, bare, check_overflow, check_points, closed_form_means, stack_arrays, stack_outcomes

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
# rows that `row_sums` adds per pass: each of its temporaries (8 bytes a row)
# stays under glibc's 128 KiB mmap threshold, so it comes from the heap, not
# from fresh pages that fault on first touch
_ROW_BLOCK = 8192


def row_sums(x):
    """`x.sum(axis=-1)`, bit for bit, a column at a time where that is faster.

    numpy sums a contiguous row of 8 to 128 doubles with eight accumulators:
    r_j is x_j plus x_{j+8k} for each further full block of 8 entries. The
    row sum is ((r0 + r1) + (r3 + r2)) + ((r4 + r5) + (r6 + r7)), then each of
    the last n mod 8 entries added in turn, then 0.0 (the reduction's start,
    which turns a -0.0 sum into +0.0). Adding whole columns in that order
    gives the same bits in about a third of the time. r3 + r2, not r2 + r3,
    only decides which of two NaNs survives, as numpy's compiled loop does.
    numpy sums other layouts in other orders (F-ordered and transposed
    stacks one entry after another), so they, other row lengths and other
    dtypes take `x.sum`.
    """
    n = x.shape[-1]
    if not (x.ndim > 1 and 8 <= n <= 128 and x.dtype == np.float64 and x.flags.c_contiguous):
        return x.sum(axis=-1)
    rows = x.reshape(-1, n)
    sums = np.empty(len(rows))
    for start in range(0, len(rows), _ROW_BLOCK):
        _column_sums(rows[start : start + _ROW_BLOCK], sums[start : start + _ROW_BLOCK])
    return sums.reshape(x.shape[:-1])


def _column_sums(rows, out):
    """`row_sums` of a (k, n) block, 8 <= n <= 128, into `out`, column by column."""
    n = rows.shape[1]
    full = n - n % 8
    acc = []
    for j in range(8):
        r = rows[:, j]
        for i in range(j + 8, full, 8):
            r = r + rows[:, i] if i == j + 8 else np.add(r, rows[:, i], out=r)
        acc.append(r)
    np.add(acc[0], acc[1], out=out)
    pair = np.add(acc[3], acc[2])
    out += pair
    right = np.add(acc[4], acc[5], out=pair)
    right += np.add(acc[6], acc[7])
    out += right
    for i in range(full, n):
        out += rows[:, i]
    out += 0.0


def _row_tol(rows):
    """LAPLACIAN_TOL + 4 m eps sum|row| per row of a (..., m) array: room for the
    rounding of a row sum and of a mean or transport before it, which grows with
    the row (scaled before the sum, so it cannot overflow)."""
    return LAPLACIAN_TOL + (np.abs(rows) * (4 * rows.shape[-1] * np.finfo(float).eps)).sum(axis=-1)


def _kind_ok(stack, kind):
    """Per matrix of a (k, m, m) stack: whether it has `kind`'s structure."""
    if kind == KIND_LAPLACIAN:
        row_sum = np.abs(row_sums(stack))
        row_sum_off = row_sum > LAPLACIAN_TOL
        m = stack.shape[-1]
        # rows and entries that fail the absolute test get their row's room
        if row_sum_off.any():
            row_sum_off[row_sum_off] = row_sum[row_sum_off] > _row_tol(stack[row_sum_off])
        positive = np.greater(stack, LAPLACIAN_TOL, order="C")
        # only off-diagonal entries must not be positive: clear the diagonal
        # through a flat view (C order makes the reshape a view, not a copy)
        positive.reshape(len(stack), m * m)[:, :: m + 1] = False
        if positive.any():
            k, i, j = np.nonzero(positive)
            positive[k, i, j] = stack[k, i, j] > _row_tol(stack[k, i])
        if not (row_sum_off.any() or positive.any()):
            return np.ones(len(stack), dtype=bool)
        return ~(row_sum_off.any(axis=-1) | positive.any(axis=(1, 2)))
    if kind == KIND_COVARIANCE:
        return np.linalg.eigvalsh(stack)[:, 0] >= -PSD_TOL
    return np.ones(len(stack), dtype=bool)


def validate(stack, kind):
    """Check a (k, m, m) stack of symmetric matrices of one kind (the tolerance test runs on asymmetric rows)."""
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvariantViolationError("matrix point must be square")
    finite = np.isfinite(stack)
    if not finite.all():
        check_points(~finite.all(axis=(1, 2)), "matrix has non-finite entries")
    differs = stack != stack.swapaxes(1, 2)
    if differs.any():
        asymmetric = differs.any(axis=(1, 2))
        rows = stack[asymmetric]
        asymmetric[asymmetric] = np.abs(rows - rows.swapaxes(1, 2)).max(axis=(1, 2)) > SYMMETRY_TOL
        check_points(asymmetric, "matrix is not symmetric")
    if kind not in (KIND_LAPLACIAN, KIND_COVARIANCE, KIND_FREE):
        raise InvariantViolationError(f"unknown matrix kind {kind!r}")
    check_points(~_kind_ok(stack, kind), f"matrix violates {kind} structure")


@dataclass(frozen=True, eq=False)
class SymmetricMatrixPoint:
    """Symmetric matrix, optionally constrained to Laplacian or covariance structure."""

    entries: np.ndarray
    kind: str = KIND_FREE
    space_id: str = field(default="frobenius", init=False, repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        validate(entries[None], self.kind)


def distance(a, b):
    """Frobenius distance ||a - b||_F."""
    return float(np.linalg.norm(a - b))


def interpolate(a, b, t):
    """Matrix at fraction t of the line segment from a to b."""
    with np.errstate(over="ignore", invalid="ignore"):
        entries = (1.0 - t) * a + t * b
        return _symmetric(entries)


def transport(alpha, beta, omega):
    """Additive transport: omega + (beta - alpha)."""
    with np.errstate(over="ignore", invalid="ignore"):
        entries = omega + beta - alpha
        return _symmetric(entries)


def _symmetric(entries):
    """`entries` made exactly symmetric, checked finite (under the caller's np.errstate)."""
    entries = 0.5 * (entries + entries.T)
    check_overflow(entries, "matrix result")
    return entries


def wrap(entries, kind):
    """The point of a finite symmetric matrix, of `kind`, or free with a KindViolationWarning if it breaks `kind`."""
    if not _kind_ok(entries[None], kind)[0]:
        warnings.warn(
            f"result violates {kind} structure; kept with kind='free'",
            KindViolationWarning,
        )
        kind = KIND_FREE
    return bare(SymmetricMatrixPoint, entries=entries, kind=kind)


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


def unwrap(points):
    """The points' entries as one (k, m, m) stack, and their common kind (else free)."""
    kinds = {p.kind for p in points}
    kind = kinds.pop() if len(kinds) == 1 else KIND_FREE
    return stack_arrays([p.entries for p in points]), {"kind": kind}


def _mean(stack):
    """Frechet mean of a (k, m, m) stack, the entrywise average, and its iteration count (0)."""
    with np.errstate(over="ignore", invalid="ignore"):
        entries = stack.mean(axis=0)
        return _symmetric(entries), 0


means = closed_form_means(_mean)


def from_data(outcomes, manifest):
    """The panel's matrices as one (k, m, m) stack, of the manifest's kind."""
    return stack_outcomes(outcomes), {"kind": manifest.get("matrix_kind", KIND_FREE)}


def to_data(entries):
    return entries


def to_jsonable(point):
    return {"space": "frobenius", "kind": point.kind, "entries": point.entries.tolist()}


def manifest_fields(shape, kind):
    return {"matrix_kind": kind}
