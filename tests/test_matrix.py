import warnings

import numpy as np
import pytest

from geodid.did import estimate_gatt
from geodid.errors import InvariantViolationError, KindViolationWarning, SpaceMismatchError
from geodid.geometry import distance, transport
from geodid.simulate import SimConfig, _run_rng, generate_panel
from geodid.spaces import check_points, matrix
from geodid.spaces.matrix import (
    KIND_COVARIANCE,
    KIND_FREE,
    KIND_LAPLACIAN,
    SymmetricMatrixPoint,
    laplacian_from_adjacency,
    row_sums,
    validate,
)

from conftest import random_matrix


def test_rejects_asymmetric():
    with pytest.raises(InvariantViolationError):
        SymmetricMatrixPoint([[0.0, 1.0], [0.0, 0.0]])


def test_laplacian_kind_checks_row_sums():
    with pytest.raises(InvariantViolationError):
        SymmetricMatrixPoint([[1.0, 0.0], [0.0, 1.0]], kind=KIND_LAPLACIAN)


def test_laplacian_row_sum_tolerance_scales_with_the_row():
    rng = np.random.default_rng(5)
    w = rng.uniform(0.5, 1.5, size=(10, 10)) * 1e8
    w = np.triu(w, 1) + np.triu(w, 1).T
    lap = laplacian_from_adjacency(w)
    # the row sums of a 1e8-scale Laplacian round off far beyond 1e-8
    assert np.abs(lap.entries.sum(axis=1)).max() > 1e-8
    for off in (1e-2 * 1e8, 1e-2):
        entries = lap.entries.copy()
        entries[3, 3] += off
        with pytest.raises(InvariantViolationError, match="laplacian"):
            SymmetricMatrixPoint(entries, kind=KIND_LAPLACIAN)


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e100])
def test_laplacian_off_diagonal_tolerance_scales_with_the_row(scale):
    rng = np.random.default_rng(5)
    w = rng.uniform(0.5, 1.5, size=(10, 10)) * scale
    w = np.triu(w, 1) + np.triu(w, 1).T
    entries = laplacian_from_adjacency(w).entries
    row = np.abs(entries[3]).sum()
    # a positive off-diagonal entry, its rows still summing to zero
    for relative, ok in ((1e-16, True), (1e-3, False)):
        positive = entries.copy()
        positive[3, 3] -= w[3, 4] + relative * row
        positive[4, 4] -= w[3, 4] + relative * row
        positive[3, 4] = positive[4, 3] = relative * row
        if ok:
            assert SymmetricMatrixPoint(positive, kind=KIND_LAPLACIAN).kind == KIND_LAPLACIAN
        else:
            with pytest.raises(InvariantViolationError, match="laplacian"):
                SymmetricMatrixPoint(positive, kind=KIND_LAPLACIAN)


def test_large_scale_network_estimate_stays_a_laplacian():
    # on this draw an off-diagonal entry of the counterfactual is zero but for
    # rounding, about 3e-17 of its row
    config = SimConfig(space="network", n=50, seed=2, alpha1=1e100)
    panel, _ = generate_panel(config, _run_rng(config, 17))
    with warnings.catch_warnings():
        warnings.simplefilter("error", KindViolationWarning)
        estimate = estimate_gatt(panel)
    assert estimate.effect.start.kind == KIND_LAPLACIAN


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


def oracle_kind_ok(stack, kind):
    """`_kind_ok` before its diagonal mask became an in-place write, kept as its oracle."""
    if kind == KIND_LAPLACIAN:
        off = ~np.eye(stack.shape[-1], dtype=bool)
        rows_sum_to_zero = ~(np.abs(stack.sum(axis=-1)) > 1e-8).any(axis=-1)
        return rows_sum_to_zero & ~((stack > 1e-8) & off).any(axis=(1, 2))
    if kind == KIND_COVARIANCE:
        return np.linalg.eigvalsh(stack)[:, 0] >= -1e-8
    return np.ones(len(stack), dtype=bool)


def oracle_validate(stack, kind):
    """`validate` before its symmetry test went exact-first, kept as its oracle."""
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvariantViolationError("matrix point must be square")
    check_points(~np.isfinite(stack).all(axis=(1, 2)), "matrix has non-finite entries")
    gap = stack - stack.swapaxes(1, 2)
    check_points(np.abs(gap, out=gap).max(axis=(1, 2)) > 1e-10, "matrix is not symmetric")
    if kind not in (KIND_LAPLACIAN, KIND_COVARIANCE, KIND_FREE):
        raise InvariantViolationError(f"unknown matrix kind {kind!r}")
    check_points(~oracle_kind_ok(stack, kind), f"matrix violates {kind} structure")


def validation_outcome(check, stack, kind):
    try:
        check(stack, kind)
    except InvariantViolationError as exc:
        return type(exc), str(exc), exc.index
    return None


def valid_stack(rng, k, m, kind):
    """k random (m, m) matrices of `kind`."""
    a = rng.normal(size=(k, m, m))
    if kind == KIND_LAPLACIAN:
        w = np.abs(a + a.swapaxes(1, 2))
        w[:, np.arange(m), np.arange(m)] = 0.0
        stack = -w
        stack[:, np.arange(m), np.arange(m)] = w.sum(axis=-1)
        return stack
    if kind == KIND_COVARIANCE:
        return a @ a.swapaxes(1, 2)
    return a + a.swapaxes(1, 2)


def _asymmetric(by):
    def perturb(x, rng):
        i, j = rng.choice(len(x), 2, replace=False)
        x[i, j] += by
    return perturb


def _entry(value):
    def perturb(x, rng):
        i, j = rng.integers(len(x), size=2)
        x[i, j] = value
    return perturb


def _positive_off_diagonal(x, rng):
    i, j = rng.choice(len(x), 2, replace=False)
    x[i, j] = x[j, i] = 0.5


def _positive_diagonal(x, rng):
    i = rng.integers(len(x))
    x[i, i] = abs(x[i, i]) + 1.0


def _row_sum_off(x, rng):
    i = rng.integers(len(x))
    x[i, i] += 2e-8


PERTURBATIONS = {
    "asymmetric by 1e-12": _asymmetric(1e-12),
    "asymmetric by 5e-11": _asymmetric(5e-11),
    "asymmetric by 1e-9": _asymmetric(1e-9),
    "nan": _entry(np.nan),
    "inf": _entry(np.inf),
    "-inf": _entry(-np.inf),
    "positive off-diagonal": _positive_off_diagonal,
    "positive diagonal": _positive_diagonal,
    "row sum off by 2e-8": _row_sum_off,
}


@pytest.mark.parametrize("kind", [KIND_LAPLACIAN, KIND_COVARIANCE, KIND_FREE, "bogus"])
@pytest.mark.parametrize("perturbation", [None, *PERTURBATIONS])
def test_validate_matches_its_oracle(kind, perturbation):
    rng = np.random.default_rng(20)
    for k in (1, 2, 9):
        for trial in range(10):
            stack = valid_stack(rng, k, int(rng.integers(2, 7)), kind)
            # exactly symmetric; then some rows get the perturbation, and
            # in every other stack some rows a second, random one
            names = [perturbation] if perturbation else []
            if trial % 2:
                names.append(rng.choice(list(PERTURBATIONS)))
            for name in names:
                for row in np.flatnonzero(rng.random(k) < 0.6):
                    PERTURBATIONS[name](stack[row], rng)
            expected = validation_outcome(oracle_validate, stack, kind)
            assert validation_outcome(validate, stack, kind) == expected


# ±0, subnormals, ±inf, NaN of both signs, and magnitudes from 1e-300 to 1e300
SPECIALS = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf, np.nan, -np.nan,
     1e300, -1e300, 1e-300, -1e-300, 1.0, -1.0]
)


def rows_to_sum(rng, k, n):
    """Stacks of k rows of n entries: wide-ranging magnitudes, some special
    values among them, rows of specials only, and rows of -0.0 only."""
    wide = 10.0 ** rng.uniform(-300, 300, (k, n)) * rng.choice([-1.0, 1.0], (k, n))
    mixed = wide.copy()
    mask = rng.random((k, n)) < 0.2
    mixed[mask] = rng.choice(SPECIALS, mask.sum())
    specials = rng.choice(SPECIALS, (k, n))
    specials[0] = -0.0
    return [rng.normal(size=(k, n)), wide, mixed, specials]


def layouts(x):
    """A (k, n) stack in the layouts numpy sums in different orders."""
    yield x
    yield np.asfortranarray(x)
    # (k/2, n, 2) transposed to (k/2, 2, n): the rows are strided
    half = x[: len(x) // 2 * 2].reshape(-1, 2, x.shape[1])
    yield np.ascontiguousarray(half.swapaxes(1, 2)).swapaxes(1, 2)
    yield x[:, ::-1]
    yield x[::-1]
    yield half


@pytest.mark.parametrize("row_block", [None, 7], ids=["one-block", "blocks-of-7-rows"])
def test_row_sums_are_numpys_row_sums_bit_for_bit(monkeypatch, row_block):
    if row_block:
        monkeypatch.setattr(matrix, "_ROW_BLOCK", row_block)
    rng = np.random.default_rng(31)
    with np.errstate(invalid="ignore", over="ignore"):
        for n in range(1, 131):
            for x in rows_to_sum(rng, 24, n):
                for stack in layouts(x):
                    got, expected = row_sums(stack), stack.sum(axis=-1)
                    assert got.shape == expected.shape
                    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_validate_rejects_a_stack_of_non_square_matrices():
    with pytest.raises(InvariantViolationError) as info:
        validate(np.zeros((2, 2, 3)), KIND_FREE)
    assert str(info.value) == "matrix point must be square"


@pytest.mark.parametrize(
    "weights, message",
    [
        (np.zeros((2, 3)), "adjacency matrix must be square"),
        (np.array([[0.0, 1.0], [2.0, 0.0]]), "adjacency matrix must be symmetric"),
    ],
    ids=["non-square", "asymmetric"],
)
def test_laplacian_from_adjacency_rejects_a_non_square_or_asymmetric_input(weights, message):
    with pytest.raises(InvariantViolationError) as info:
        laplacian_from_adjacency(weights)
    assert str(info.value) == message
