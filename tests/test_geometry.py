import numpy as np
import pytest
from scipy.stats import norm

from geodid.errors import SpaceMismatchError
from geodid.geometry import (
    _BACKENDS,
    Geodesic,
    concatenate,
    distance,
    geodesic_difference,
    quotient_distance,
    reverse,
    transport,
)
from geodid.spaces import sphere as ssp
from geodid.spaces.matrix import SymmetricMatrixPoint
from geodid.spaces.wasserstein import QuantileCurve, midpoint_grid

from conftest import random_composition, random_curve, random_matrix


def gaussian_curve(mu, sigma, m=200):
    return QuantileCurve(mu + sigma * norm.ppf(midpoint_grid(m)))


SAMPLERS = {
    "wasserstein": lambda rng: random_curve(rng, grid_size=60),
    "sphere": lambda rng: random_composition(rng, dim=4),
    "frobenius": lambda rng: random_matrix(rng, size=3),
}


def test_space_mismatch_raises():
    curve = gaussian_curve(0, 1)
    mat = SymmetricMatrixPoint(np.zeros((2, 2)))
    with pytest.raises(SpaceMismatchError):
        distance(curve, mat)
    with pytest.raises(SpaceMismatchError):
        Geodesic(curve, mat)


def test_geodesic_endpoints_and_range():
    a = SymmetricMatrixPoint(np.zeros((2, 2)))
    b = SymmetricMatrixPoint(np.eye(2))
    g = Geodesic(a, b)
    assert distance(g(0.0), a) < 1e-10
    assert distance(g(1.0), b) < 1e-10
    np.testing.assert_allclose(g(0.5).entries, 0.5 * np.eye(2))
    with pytest.raises(ValueError):
        g(1.5)
    with pytest.raises(ValueError):
        g.evaluate(-0.1)


def test_slerp_midpoint():
    e1 = ssp.UnitCompositionPoint([1.0, 0.0, 0.0])
    e2 = ssp.UnitCompositionPoint([0.0, 1.0, 0.0])
    mid = Geodesic(e1, e2)(0.5)
    np.testing.assert_allclose(mid.coords, [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])


def test_mccann_interpolation():
    q0 = gaussian_curve(0, 1)
    q1 = gaussian_curve(1, 1)
    out = Geodesic(q0, q1)(0.3)
    np.testing.assert_allclose(out.values, 0.3 + q0.values, atol=1e-12)


@pytest.mark.parametrize("space", sorted(SAMPLERS))
def test_constant_speed(space):
    rng = np.random.default_rng(21)
    sample = SAMPLERS[space]
    for _ in range(25):
        a, b = sample(rng), sample(rng)
        g = Geodesic(a, b)
        total = distance(a, b)
        for s, t in ((0.0, 0.25), (0.2, 0.7), (0.5, 1.0)):
            seg = distance(g(s), g(t))
            assert seg == pytest.approx(abs(t - s) * total, rel=1e-8, abs=1e-12)


def test_reverse_and_concatenate():
    a = SymmetricMatrixPoint(np.zeros((2, 2)))
    b = SymmetricMatrixPoint(np.eye(2))
    c = SymmetricMatrixPoint(2 * np.eye(2))
    g = Geodesic(a, b)
    assert reverse(g).start is g.end
    joined = concatenate(Geodesic(a, b), Geodesic(b, c))
    assert joined.start is a and joined.end is c
    with pytest.raises(SpaceMismatchError):
        concatenate(Geodesic(a, c), Geodesic(b, c))


def test_geodesic_difference_trivial():
    rng = np.random.default_rng(2)
    for space, sample in SAMPLERS.items():
        a, b = sample(rng), sample(rng)
        g = Geodesic(a, b)
        diff = geodesic_difference(g, g)
        assert diff.length() < 1e-8, space
        assert distance(diff.end, b) == 0.0


def test_geodesic_difference_matrix_arithmetic():
    def mat(x):
        return SymmetricMatrixPoint(np.array(x, dtype=float))

    zero = mat(np.zeros((2, 2)))
    a = mat([[1.0, 0.5], [0.5, 2.0]])
    w = mat([[0.0, 1.0], [1.0, 0.0]])
    z = mat([[3.0, 0.0], [0.0, 3.0]])
    diff = geodesic_difference(Geodesic(zero, a), Geodesic(w, z))
    np.testing.assert_allclose(diff.start.entries, w.entries + a.entries)
    np.testing.assert_array_equal(diff.end.entries, z.entries)


def test_geodesic_difference_wasserstein_gaussians():
    sub = Geodesic(gaussian_curve(0, 1), gaussian_curve(1, 1))
    minuend = Geodesic(gaussian_curve(0, 1), gaussian_curve(2, 1))
    diff = geodesic_difference(sub, minuend)
    np.testing.assert_allclose(diff.start.values, gaussian_curve(1, 1).values, atol=1e-9)
    np.testing.assert_allclose(diff.end.values, gaussian_curve(2, 1).values)


def test_quotient_distance_examples():
    def mat(x):
        return SymmetricMatrixPoint(np.array(x, dtype=float))

    zero = mat(np.zeros((2, 2)))
    b1 = mat([[1.0, 0.0], [0.0, 1.0]])
    b2 = mat([[2.0, 1.0], [1.0, 0.0]])
    ref = mat([[0.5, 0.2], [0.2, 0.9]])
    g1, g2 = Geodesic(zero, b1), Geodesic(zero, b2)
    assert quotient_distance(g1, g1, ref) == 0.0
    assert quotient_distance(g1, g2, ref) == pytest.approx(
        np.linalg.norm(b1.entries - b2.entries)
    )
    # equivalent-but-distinct geodesics: same displacement, shifted endpoints
    c = mat([[1.0, 1.0], [1.0, 1.0]])
    shifted = Geodesic(c, mat(c.entries + b1.entries))
    assert quotient_distance(g1, shifted, ref) < 1e-12


def test_equivalence_relation_under_shift():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a, b, c, ref = (random_matrix(rng) for _ in range(4))
        g = Geodesic(a, b)
        shifted = Geodesic(
            SymmetricMatrixPoint(a.entries + c.entries),
            SymmetricMatrixPoint(b.entries + c.entries),
        )
        assert quotient_distance(g, shifted, ref) < 1e-10


@pytest.mark.parametrize("space", sorted(SAMPLERS))
def test_metric_axioms_quick(space):
    rng = np.random.default_rng(41)
    sample = SAMPLERS[space]
    for _ in range(100):
        a, b, c = sample(rng), sample(rng), sample(rng)
        dab, dba = distance(a, b), distance(b, a)
        assert dab == dba
        assert distance(a, a) <= 1e-10
        assert dab <= distance(a, c) + distance(c, b) + 1e-9


@pytest.mark.filterwarnings("ignore::geodid.errors.OrthantExitWarning")
@pytest.mark.parametrize("space", sorted(SAMPLERS))
def test_transport_lipschitz_ratio_bounded(space):
    rng = np.random.default_rng(51)
    sample = SAMPLERS[space]
    ratios = []
    for _ in range(300):
        a, b, w, z = (sample(rng) for _ in range(4))
        dwz = distance(w, z)
        if dwz < 1e-8:
            continue
        ratios.append(distance(transport(a, b, w), transport(a, b, z)) / dwz)
    worst = max(ratios)
    if space == "frobenius":
        assert abs(worst - 1.0) < 1e-12
    else:
        assert worst < 50.0


@pytest.mark.filterwarnings("ignore::geodid.errors.OrthantExitWarning")
@pytest.mark.parametrize("space", sorted(SAMPLERS))
def test_transport_endpoint_stability_bounded(space):
    rng = np.random.default_rng(61)
    sample = SAMPLERS[space]
    ratios = []
    for _ in range(300):
        a1, a2, b1, b2, w = (sample(rng) for _ in range(5))
        denom = distance(a1, a2) + distance(b1, b2)
        if denom < 1e-8:
            continue
        ratios.append(
            distance(transport(a1, b1, w), transport(a2, b2, w)) / denom
        )
    worst = max(ratios)
    if space == "frobenius":
        assert worst <= 1.0 + 1e-12
    else:
        assert worst < 50.0


BACKEND_PROTOCOL = (
    "distance",
    "interpolate",
    "transport",
    "validate",
    "wrap",
    "unwrap",
    "means",
    "from_data",
    "to_data",
    "to_jsonable",
    "manifest_fields",
    "FORMATS",
    "PATH_INDEPENDENT",
)


@pytest.mark.parametrize("space", sorted(_BACKENDS))
def test_backend_defines_protocol(space):
    backend = _BACKENDS[space]
    missing = [name for name in BACKEND_PROTOCOL if not hasattr(backend, name)]
    assert not missing
    assert isinstance(backend.PATH_INDEPENDENT, bool)
    assert "inline" in backend.FORMATS


def test_path_independence_flags():
    assert _BACKENDS["wasserstein"].PATH_INDEPENDENT
    assert _BACKENDS["frobenius"].PATH_INDEPENDENT
    assert not _BACKENDS["sphere"].PATH_INDEPENDENT
