import numpy as np
import pytest

from geodid.errors import (
    DegenerateTangentError,
    InvariantViolationError,
    OrthantExitWarning,
    SpaceMismatchError,
)
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
