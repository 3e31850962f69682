"""Each backend's `transport` and `distance` on (k, *shape) stacks.

A stack's result is its rows' results, each row taken alone as a stack of
one, bit for bit on every space, with one OrthantExitWarning per row that
leaves the orthant. On the sphere a row is also held to the point-level
arithmetic of one point (`np.dot` and `np.linalg.norm`) within `SPHERE_TOL`:
the stacked kernel takes its row products as matmuls of one row by one
column, which numpy computes with its `dot`, so the two agree bit for bit
where the product is that `dot`, and within the tolerance where it sums in
another order. A row that does not move (the sphere's alpha within 1e-14 of
beta) keeps its omega, a degenerate row raises, and a row that does not move
does not raise.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodid.errors import DegenerateTangentError, DegenerateTransportError, OrthantExitWarning
from geodid.geometry import _BACKENDS
from geodid.spaces import sphere

SPACES = ("wasserstein", "sphere", "frobenius")
# absolute, per coordinate and per magnitude, fixed before the kernels were stacked
SPHERE_TOL = 1e-15
KERNEL = settings(max_examples=200, deadline=None, database=None)
seeds = st.integers(0, 2**32 - 1)


def random_stack(rng, space, k, dim):
    """A (k, *shape) stack of points of `space` with `dim` coordinates, grid values or nodes."""
    if space == "wasserstein":
        return rng.normal(0.0, 2.0, (k, 1)) + np.cumsum(rng.uniform(0.1, 1.0, (k, dim)), axis=-1)
    if space == "sphere":
        # Dirichlet(1) shares reach near the orthant's faces, so some transports leave it
        return np.sqrt(rng.dirichlet(np.ones(dim), size=k))
    a = rng.normal(size=(k, dim, dim))
    return a + a.swapaxes(-1, -2)


def kernel_rows(space, kernel, *stacks):
    """`kernel` of the stacks and of each row alone, with the OrthantExitWarnings each emitted."""
    kernel = getattr(_BACKENDS[space], kernel)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stacked = kernel(*stacks)
    rows, row_warnings = [], 0
    for i in range(len(stacks[0])):
        with warnings.catch_warnings(record=True) as row_caught:
            warnings.simplefilter("always")
            rows.append(kernel(*(s[i : i + 1] for s in stacks)))
        row_warnings += sum(issubclass(w.category, OrthantExitWarning) for w in row_caught)
    exits = sum(issubclass(w.category, OrthantExitWarning) for w in caught)
    return stacked, np.concatenate(rows), exits, row_warnings


def point_transport(alpha, beta, omega):
    """The sphere transport of one point in the arithmetic of one point."""
    theta = sphere._angle(alpha, beta)
    if theta < 1e-14:
        return omega
    v_ab = beta - np.dot(alpha, beta) * alpha
    v = v_ab - np.dot(omega, v_ab) * omega
    coords = np.cos(theta) * omega + np.sin(theta) * v / np.linalg.norm(v)
    return coords / np.linalg.norm(coords)


@KERNEL
@given(
    space=st.sampled_from(SPACES),
    seed=seeds,
    k=st.integers(1, 6),
    dim=st.integers(2, 6),
    still=st.sets(st.integers(0, 5)),
)
def test_a_stacked_kernel_is_its_rows_alone(space, seed, k, dim, still):
    rng = np.random.default_rng(seed)
    alpha, beta, omega = (random_stack(rng, space, k, dim) for _ in range(3))
    still = sorted(i for i in still if i < k)
    if space == "sphere":
        # rows of a constant geodesic: beta is alpha or an ulp from it
        beta[still] = alpha[still]
        beta[still[::2], 0] = np.nextafter(alpha[still[::2], 0], 2.0)
    moved, rows, exits, row_exits = kernel_rows(space, "transport", alpha, beta, omega)
    assert moved.shape == omega.shape
    assert moved.tobytes() == rows.tobytes()
    assert exits == row_exits
    lengths, row_lengths, _, _ = kernel_rows(space, "distance", moved, omega)
    assert lengths.shape == (k,)
    assert lengths.tobytes() == row_lengths.tobytes()
    if space == "sphere":
        assert np.abs(lengths[still]).max(initial=0.0) < 1e-14
        assert moved[still].tobytes() == omega[still].tobytes()
        for i in range(k):
            assert np.abs(moved[i] - point_transport(alpha[i], beta[i], omega[i])).max() <= SPHERE_TOL
            assert abs(lengths[i] - sphere._angle(moved[i], omega[i])) <= SPHERE_TOL
    if space == "frobenius":
        # np.linalg.norm of one matrix is the square root of numpy's dot of its entries
        assert lengths.tolist() == [float(np.linalg.norm(a - b)) for a, b in zip(moved, omega)]
    if space == "wasserstein":
        assert lengths.tolist() == [float(np.sqrt(np.mean((a - b) ** 2))) for a, b in zip(moved, omega)]


def test_stacked_sphere_transports_warn_once_per_exiting_row():
    # from the diagonal towards e1, a point near the (0.98, 0.02, 0) edge leaves
    # the orthant; the point on the diagonal and the still row do not
    diag, e1 = np.full(3, 3**-0.5), np.eye(3)[0]
    near_edge = np.sqrt([0.98, 0.02, 0.0])
    alpha = np.array([diag, diag, diag, diag])
    beta = np.array([e1, e1, diag, e1])
    omega = np.array([near_edge, diag, near_edge, near_edge])
    moved, rows, exits, row_exits = kernel_rows("sphere", "transport", alpha, beta, omega)
    assert exits == row_exits == 2
    assert moved.tobytes() == rows.tobytes()
    np.testing.assert_allclose(np.linalg.norm(moved, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_a_degenerate_moving_sphere_row_raises(position):
    # from e1 towards e2, omega = e2 leaves no tangent direction to move along;
    # the other rows take a short step inside the orthant
    e1, e2, _ = np.eye(3)
    alpha = np.tile(np.sqrt([0.3, 0.3, 0.4]), (3, 1))
    beta = np.tile(np.sqrt([0.35, 0.3, 0.35]), (3, 1))
    omega = np.tile(np.sqrt([0.2, 0.3, 0.5]), (3, 1))
    alpha[position], beta[position], omega[position] = e1, e2, e2
    with pytest.raises(DegenerateTangentError):
        sphere.transport(alpha, beta, omega)
    # the same omega on a still row does not move, so nothing raises
    beta[position] = e1
    moved = sphere.transport(alpha, beta, omega)
    assert moved[position].tobytes() == e2.tobytes()


@pytest.mark.parametrize("position", [0, 2])
def test_a_constant_alpha_row_raises_on_wasserstein(position):
    rng = np.random.default_rng(position)
    alpha, beta, omega = (random_stack(rng, "wasserstein", 3, 5) for _ in range(3))
    alpha[position] = 1.5
    with pytest.raises(DegenerateTransportError):
        _BACKENDS["wasserstein"].transport(alpha, beta, omega)
