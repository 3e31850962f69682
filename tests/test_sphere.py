import numpy as np
import pytest

from geodid.errors import (
    DegenerateTangentError,
    InvariantViolationError,
    NonConvergenceError,
    OrthantExitWarning,
    SpaceMismatchError,
)
from geodid.spaces import sphere
from geodid.spaces.sphere import (
    UnitCompositionPoint,
    distance,
    embed_composition,
    exp_map,
    log_map,
    transport,
    unembed,
)

from conftest import random_composition

E1 = UnitCompositionPoint([1.0, 0.0, 0.0])
E2 = UnitCompositionPoint([0.0, 1.0, 0.0])
DIAG = UnitCompositionPoint([1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])


def test_point_requires_unit_norm():
    with pytest.raises(InvariantViolationError):
        UnitCompositionPoint([1.0, 1.0, 0.0])


def test_point_rejects_negative_coordinate():
    with pytest.raises(InvariantViolationError):
        UnitCompositionPoint([np.sqrt(0.5), -np.sqrt(0.5), 0.0])


def test_distance_examples():
    assert distance(E1, E1) == 0.0
    assert distance(E1, E2) == pytest.approx(np.pi / 2)
    assert distance(E1, DIAG) == pytest.approx(np.pi / 4)


def test_distance_dimension_mismatch():
    with pytest.raises(SpaceMismatchError):
        distance(E1, UnitCompositionPoint([1.0, 0.0]))


def test_transport_alpha_equals_beta():
    out = transport(E1, E1, DIAG)
    np.testing.assert_array_equal(out.coords, DIAG.coords)


def test_transport_endpoint_property():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = random_composition(rng), random_composition(rng)
        out = transport(a, b, a)
        assert distance(out, b) < 1e-10


@pytest.mark.filterwarnings("ignore::geodid.errors.OrthantExitWarning")
def test_transport_moves_by_geodesic_length():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, w = random_composition(rng), random_composition(rng), random_composition(rng)
        out = transport(a, b, w)
        assert abs(np.linalg.norm(out.coords) - 1.0) < 1e-10
        assert distance(w, out) == pytest.approx(distance(a, b), abs=1e-8)


def test_transport_against_independent_construction():
    # move omega by theta along the direction obtained from an independent
    # projector-based Gram-Schmidt step
    alpha, beta = E1, DIAG
    omega = UnitCompositionPoint([1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])
    out = transport(alpha, beta, omega)
    theta = np.arccos(alpha.coords @ beta.coords)
    v_ab = beta.coords - (alpha.coords @ beta.coords) * alpha.coords
    proj = np.eye(3) - np.outer(omega.coords, omega.coords)
    u = proj @ v_ab
    u /= np.linalg.norm(u)
    expected = np.cos(theta) * omega.coords + np.sin(theta) * u
    np.testing.assert_allclose(out.coords, expected, atol=1e-12)
    assert distance(omega, out) == pytest.approx(np.pi / 4, abs=1e-12)
    # result stays in span{omega, alpha, beta}
    basis = np.linalg.svd(
        np.vstack([omega.coords, alpha.coords, beta.coords])
    )[2][:3]
    residual = out.coords - basis.T @ (basis @ out.coords)
    assert np.linalg.norm(residual) < 1e-12


def test_transport_degenerate_tangent():
    # tangent projection vanishes when the motion direction is parallel to omega
    with pytest.raises(DegenerateTangentError):
        transport(E1, E2, E2)


def test_transport_orthant_exit_warns_but_returns():
    near_edge = embed_composition([0.98, 0.02, 0.0])
    with pytest.warns(OrthantExitWarning):
        out = transport(DIAG, E1, near_edge)
    assert abs(np.linalg.norm(out.coords) - 1.0) < 1e-10


def test_embed_composition_examples():
    np.testing.assert_array_equal(
        embed_composition([1.0, 0.0, 0.0]).coords, [1.0, 0.0, 0.0]
    )
    np.testing.assert_allclose(
        embed_composition([0.25, 0.25, 0.5]).coords,
        [0.5, 0.5, 1 / np.sqrt(2)],
    )
    d = 4
    np.testing.assert_allclose(
        embed_composition([1 / d] * d).coords, [1 / np.sqrt(d)] * d
    )


def test_embed_rejects_negative_and_bad_sum():
    with pytest.raises(InvariantViolationError):
        embed_composition([0.7, 0.4, -0.1])
    with pytest.raises(InvariantViolationError):
        embed_composition([0.5, 0.4])


def test_unembed_round_trip():
    for shares in ([1.0, 0.0, 0.0], [0.25, 0.25, 0.5], [0.2, 0.3, 0.5]):
        point = embed_composition(shares)
        np.testing.assert_allclose(unembed(point), shares, atol=1e-12)


def test_exp_log_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(50):
        base, target = random_composition(rng), random_composition(rng)
        v = log_map(base, target)
        assert np.linalg.norm(v) == pytest.approx(distance(base, target), abs=1e-10)
        back = exp_map(base, v)
        assert distance(back, target) < 1e-10


def loop_mean(points, weights):
    """The point-by-point Karcher loop that `sphere.mean` batched, kept as its oracle."""
    coords = np.array([p.coords for p in points])
    w = weights / weights.sum()
    extrinsic = w @ coords
    if np.linalg.norm(extrinsic) < 1e-8:
        # near-degenerate configuration; start from the first point instead
        current = points[0]
    else:
        current = sphere._finish(extrinsic)
    for iteration in range(1, sphere.MEAN_MAX_ITER + 1):
        tangent = np.zeros(current.dim)
        for point, wi in zip(points, w):
            tangent += wi * log_map(current, point)
        step = float(np.linalg.norm(tangent))
        current = exp_map(current, tangent)
        if step < sphere.MEAN_TOL:
            return current, iteration
    raise NonConvergenceError(
        f"sphere mean did not converge in {sphere.MEAN_MAX_ITER} iterations "
        f"(last step {step:.3e})",
        iterations=sphere.MEAN_MAX_ITER,
        last_step=step,
    )


def assert_mean_matches_loop(points, weights=None):
    weights = np.ones(len(points)) if weights is None else np.asarray(weights, float)
    batched, batched_iters = sphere.mean(points, weights)
    looped, looped_iters = loop_mean(points, weights)
    np.testing.assert_allclose(batched.coords, looped.coords, rtol=0, atol=1e-12)
    assert batched_iters == looped_iters


@pytest.mark.parametrize("dim", [2, 3, 5, 50])
@pytest.mark.parametrize("weighted", [False, True])
def test_mean_matches_loop_on_random_points(dim, weighted):
    rng = np.random.default_rng(100 + dim)
    for n in (1, 2, 7, 40):
        points = [random_composition(rng, dim=dim) for _ in range(n)]
        weights = rng.uniform(0.1, 3.0, n) if weighted else None
        assert_mean_matches_loop(points, weights)


def test_mean_matches_loop_on_orthant_boundary():
    # compositions with zero shares, vertices included
    rng = np.random.default_rng(7)
    for dim in (3, 5):
        for n in (2, 6, 25):
            points = []
            for _ in range(n):
                shares = rng.dirichlet(np.ones(dim))
                shares[rng.random(dim) < 0.5] = 0.0
                if shares.sum() == 0.0:
                    shares[rng.integers(dim)] = 1.0
                points.append(embed_composition(shares / shares.sum()))
            points.append(embed_composition(np.eye(dim)[0]))
            assert_mean_matches_loop(points)
            assert_mean_matches_loop(points, rng.uniform(0.1, 3.0, len(points)))


def test_mean_matches_loop_on_spread_near_vertices():
    # every point sits near a vertex, so pairs are almost pi/2 apart
    rng = np.random.default_rng(8)
    for dim in (2, 3, 5):
        for eps in (1e-2, 1e-4, 1e-8):
            points = []
            for k in range(2 * dim):
                shares = np.full(dim, eps / (dim - 1)) * rng.uniform(0.5, 1.5, dim)
                shares[k % dim] = 0.0
                shares[k % dim] = 1.0 - shares.sum()
                points.append(embed_composition(shares))
            assert_mean_matches_loop(points)
            assert_mean_matches_loop(points, rng.uniform(0.1, 3.0, len(points)))


def test_mean_matches_loop_when_a_point_is_the_start():
    # p + q is parallel to c, and every sum below is exact in binary, so the
    # extrinsic start is c itself and c's log map takes the theta < 1e-14 branch
    c = UnitCompositionPoint(np.full(4, 0.5))
    direction = np.array([0.6, 0.4, 0.55, 0.45])
    p = np.round(direction / np.linalg.norm(direction) * 2.0**40) / 2.0**40
    q = p.sum() / 2 - p
    points = [c, c, UnitCompositionPoint(p), UnitCompositionPoint(q)]
    start = sphere._finish(np.full(4, 0.25) @ np.array([x.coords for x in points]))
    np.testing.assert_array_equal(start.coords, c.coords)
    assert np.arccos(min(c.coords @ start.coords, 1.0)) < 1e-14
    assert_mean_matches_loop(points)
    mean, _ = sphere.mean(points, np.ones(4))
    assert distance(mean, c) < 1e-12


def test_mean_raises_when_iterations_run_out(monkeypatch):
    rng = np.random.default_rng(9)
    points = [random_composition(rng, dim=4) for _ in range(10)]
    monkeypatch.setattr(sphere, "MEAN_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError) as info:
        sphere.mean(points, np.ones(len(points)))
    assert info.value.iterations == 1
    assert info.value.last_step > sphere.MEAN_TOL
