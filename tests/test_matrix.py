import numpy as np
import pytest

from geodid.errors import InvariantViolationError, KindViolationWarning, SpaceMismatchError
from geodid.spaces.matrix import (
    KIND_COVARIANCE,
    KIND_LAPLACIAN,
    SymmetricMatrixPoint,
    distance,
    laplacian_from_adjacency,
    transport,
)

from conftest import random_matrix


def test_rejects_asymmetric():
    with pytest.raises(InvariantViolationError):
        SymmetricMatrixPoint([[0.0, 1.0], [0.0, 0.0]])


def test_laplacian_kind_checks_row_sums():
    with pytest.raises(InvariantViolationError):
        SymmetricMatrixPoint([[1.0, 0.0], [0.0, 1.0]], kind=KIND_LAPLACIAN)


def test_covariance_kind_checks_psd():
    with pytest.raises(InvariantViolationError):
        SymmetricMatrixPoint([[1.0, 2.0], [2.0, 1.0]], kind=KIND_COVARIANCE)
    SymmetricMatrixPoint([[2.0, 1.0], [1.0, 2.0]], kind=KIND_COVARIANCE)


def test_distance_examples():
    a = SymmetricMatrixPoint(np.zeros((3, 3)))
    b = SymmetricMatrixPoint(np.eye(3))
    assert distance(a, a) == 0.0
    assert distance(a, b) == pytest.approx(np.sqrt(3))


def test_distance_shape_mismatch():
    with pytest.raises(SpaceMismatchError):
        distance(
            SymmetricMatrixPoint(np.zeros((2, 2))),
            SymmetricMatrixPoint(np.zeros((3, 3))),
        )


def test_transport_examples():
    rng = np.random.default_rng(4)
    zero = SymmetricMatrixPoint(np.zeros((4, 4)))
    b, w = random_matrix(rng), random_matrix(rng)
    np.testing.assert_allclose(transport(b, b, w).entries, w.entries, atol=1e-14)
    np.testing.assert_allclose(
        transport(zero, b, w).entries, w.entries + b.entries, atol=1e-15
    )


def test_transport_is_exact_isometry():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b, w, z = (random_matrix(rng) for _ in range(4))
        lhs = distance(transport(a, b, w), transport(a, b, z))
        assert abs(lhs - distance(w, z)) < 1e-12


def test_transport_consistency_identity():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a, b, z, w = (random_matrix(rng) for _ in range(4))
        direct = transport(a, b, w)
        via = transport(z, b, transport(a, z, w))
        assert distance(direct, via) < 1e-12


def test_transport_kind_violation_warns():
    # transporting a Laplacian by a non-Laplacian difference breaks structure
    lap = laplacian_from_adjacency([[0.0, 1.0], [1.0, 0.0]])
    alpha = SymmetricMatrixPoint(np.zeros((2, 2)))
    beta = SymmetricMatrixPoint(np.eye(2))
    with pytest.warns(KindViolationWarning):
        out = transport(alpha, beta, lap)
    assert out.kind == "free"


def test_laplacian_from_adjacency_examples():
    empty = laplacian_from_adjacency(np.zeros((3, 3)))
    np.testing.assert_array_equal(empty.entries, np.zeros((3, 3)))

    w = 2.5
    single = laplacian_from_adjacency([[0.0, w], [w, 0.0]])
    np.testing.assert_array_equal(single.entries, [[w, -w], [-w, w]])

    triangle = laplacian_from_adjacency(1.0 - np.eye(3))
    np.testing.assert_array_equal(np.diag(triangle.entries), [2.0, 2.0, 2.0])
    off = triangle.entries[~np.eye(3, dtype=bool)]
    np.testing.assert_array_equal(off, -1.0)


def test_laplacian_from_adjacency_validation():
    with pytest.raises(InvariantViolationError):
        laplacian_from_adjacency([[1.0, 0.0], [0.0, 0.0]])  # nonzero diagonal
    with pytest.raises(InvariantViolationError):
        laplacian_from_adjacency([[0.0, -1.0], [-1.0, 0.0]])  # negative weight


def test_sbm_mean_laplacian_transport():
    # two-block means with unit trend parameters: transport reproduces the
    # counterfactual with off-diagonal -3 p_ll' entrywise
    from geodid.simulate import SimConfig, true_network_gatt, _block_probabilities

    config = SimConfig(space="network")
    _, probs = _block_probabilities(config)
    truth = true_network_gatt(config)
    off_mask = probs > 0
    np.testing.assert_allclose(
        truth.start.entries[off_mask], -3.0 * probs[off_mask], atol=1e-12
    )
    np.testing.assert_allclose(
        truth.end.entries[off_mask], -4.0 * probs[off_mask], atol=1e-12
    )
