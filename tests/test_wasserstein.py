import numpy as np
import pytest
from scipy.stats import norm

from geodid.errors import DegenerateTransportError, InvariantViolationError, SpaceMismatchError
from geodid.spaces.wasserstein import (
    QuantileCurve,
    cdf_eval,
    distance,
    midpoint_grid,
    pav_projection,
    quantile_from_samples,
    transport,
)

from conftest import random_curve


def gaussian_curve(mu, sigma, m=1000):
    return QuantileCurve(mu + sigma * norm.ppf(midpoint_grid(m)))


def test_curve_requires_monotone_values():
    with pytest.raises(InvariantViolationError):
        QuantileCurve([0.0, 1.0, 0.5])


def test_curve_rejects_nan():
    with pytest.raises(InvariantViolationError):
        QuantileCurve([0.0, np.nan])


def test_distance_self_zero():
    a = gaussian_curve(0, 1)
    assert distance(a, a) == 0.0


def test_distance_gaussian_location_shift():
    # closed form: W2(N(0,1), N(1,1)) = sqrt(1^2 + 0^2) = 1
    a = gaussian_curve(0, 1)
    b = gaussian_curve(1, 1)
    assert distance(a, b) == pytest.approx(1.0, abs=1e-6)


def test_distance_gaussian_scale_shift():
    # W2(N(0,1), N(0,2)) = 1; midpoint grid truncates the tails
    a = gaussian_curve(0, 1)
    b = gaussian_curve(0, 2)
    assert distance(a, b) == pytest.approx(1.0, abs=1e-3)


def test_distance_grid_mismatch():
    with pytest.raises(SpaceMismatchError):
        distance(gaussian_curve(0, 1, 100), gaussian_curve(0, 1, 200))


def test_transport_identity_when_omega_is_alpha():
    a = gaussian_curve(0, 1)
    b = gaussian_curve(1, 1)
    out = transport(a, b, a)
    np.testing.assert_allclose(out.values, b.values, atol=1e-12)


def test_transport_gaussian_composition():
    # alpha=N(0,1), beta=N(1,1), omega=N(0,4) -> N(1,4) away from clamped tails
    a = gaussian_curve(0, 1)
    b = gaussian_curve(1, 1)
    w = gaussian_curve(0, 2)
    out = transport(a, b, w)
    expected = gaussian_curve(1, 2)
    interior = (w.values > a.values[0]) & (w.values < a.values[-1])
    assert interior.sum() > 800
    np.testing.assert_allclose(
        out.values[interior], expected.values[interior], atol=1e-3
    )


def test_transport_location_family_is_shift():
    a = gaussian_curve(0, 1)
    b = gaussian_curve(2.5, 1)
    rng = np.random.default_rng(3)
    w = random_curve(rng, grid_size=1000)
    out = transport(a, b, w)
    interior = (w.values > a.values[0]) & (w.values < a.values[-1])
    assert interior.sum() > 100
    np.testing.assert_allclose(
        out.values[interior], w.values[interior] + 2.5, atol=1e-9
    )


def test_transport_degenerate_alpha():
    const = QuantileCurve(np.zeros(100))
    b = gaussian_curve(0, 1, 100)
    with pytest.raises(DegenerateTransportError):
        transport(const, b, b)


def test_transport_output_monotone_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b, w = (random_curve(rng) for _ in range(3))
        out = transport(a, b, w)
        assert np.all(np.diff(out.values) >= -1e-10)


def test_quantile_from_samples_two_points():
    # sorted pair (0, 1), grid {0.25, 0.75}: linear interpolation of order stats
    curve = quantile_from_samples([0.0, 1.0], grid_size=2)
    np.testing.assert_allclose(curve.values, [0.25, 0.75])


def test_quantile_from_samples_constant():
    curve = quantile_from_samples([3.0] * 10, grid_size=5)
    np.testing.assert_allclose(curve.values, 3.0)


def test_quantile_from_samples_matches_brute_force():
    samples = np.arange(1.0, 101.0)
    curve = quantile_from_samples(samples, grid_size=100)
    brute = np.array(
        [np.quantile(samples, p) for p in midpoint_grid(100)]
    )
    np.testing.assert_allclose(curve.values, brute)
    # roughly linear for evenly spaced samples
    assert np.max(np.abs(np.diff(curve.values, 2))) < 1e-9


def test_quantile_from_samples_rejects_singleton():
    with pytest.raises(InvariantViolationError):
        quantile_from_samples([1.0])


def test_cdf_quantile_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        curve = random_curve(rng)
        p = cdf_eval(curve, curve.values)
        np.testing.assert_allclose(p, curve.grid, atol=1e-8)


def test_cdf_flat_segment_leftmost():
    curve = QuantileCurve([0.0, 1.0, 1.0, 1.0, 2.0])
    p = cdf_eval(curve, np.array([1.0]))
    assert p[0] == pytest.approx(curve.grid[1])


def test_transport_consistency_identity():
    # transporting through an intermediate curve equals direct transport
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, b, z, w = (random_curve(rng) for _ in range(4))
        direct = transport(a, b, w)
        via = transport(z, b, transport(a, z, w))
        assert np.max(np.abs(direct.values - via.values)) < 1e-6


def test_geodesic_linearity_in_quantile_space():
    from geodid.geometry import Geodesic

    rng = np.random.default_rng(23)
    a, b = random_curve(rng), random_curve(rng)
    g = Geodesic(a, b)
    for t in (0.0, 0.3, 0.5, 1.0):
        np.testing.assert_array_equal(
            g(t).values, (1 - t) * a.values + t * b.values
        )


def test_pav_projection():
    np.testing.assert_allclose(pav_projection([1.0, 3.0, 2.0]), [1.0, 2.5, 2.5])
    np.testing.assert_allclose(pav_projection([3.0, 2.0, 1.0]), [2.0, 2.0, 2.0])
    x = [0.0, 1.0, 2.0]
    np.testing.assert_allclose(pav_projection(x), x)
