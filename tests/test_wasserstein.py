import numpy as np
import pytest
from scipy.stats import norm

from geodid import frechet_mean
from geodid.errors import DegenerateTransportError, InvariantViolationError, SpaceMismatchError
from geodid.geometry import distance, transport
from geodid.spaces.wasserstein import (
    POINT_TOL,
    QuantileCurve,
    _nondecreasing,
    _sample_quantiles,
    cdf_eval,
    mean,
    midpoint_grid,
    quantile_from_samples,
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
        p = cdf_eval(curve.values, curve.values)
        np.testing.assert_allclose(p, curve.grid, atol=1e-8)


def test_cdf_flat_segment_leftmost():
    curve = QuantileCurve([0.0, 1.0, 1.0, 1.0, 2.0])
    p = cdf_eval(curve.values, np.array([1.0]))
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


def test_sample_quantiles_match_per_row_quantiles_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(80):
        k, s, m = rng.integers(1, 40), rng.integers(2, 250), rng.integers(2, 150)
        scale = 10.0 ** rng.uniform(-3.0, 8.0)
        draws = scale * (rng.standard_normal((k, s)) + rng.normal(0.0, 3.0, (k, 1)))
        stacked = _sample_quantiles(draws, m)
        per_row = np.array([np.quantile(row, midpoint_grid(m)) for row in draws])
        assert stacked.shape == (k, m)
        np.testing.assert_array_equal(stacked.view(np.uint64), per_row.view(np.uint64))


@pytest.mark.parametrize(
    "samples, message",
    [
        ([1.0], "need at least two samples"),
        ([], "need at least two samples"),
        ([[0.0, 1.0], [2.0, 3.0]], "need at least two samples"),
        ([0.0, np.inf, 1.0], "sample has non-finite draws"),
        ([np.nan, 0.0], "sample has non-finite draws"),
    ],
    ids=["one-draw", "no-draw", "2-d", "inf", "nan"],
)
def test_quantile_from_samples_rejects_bad_draws(samples, message, recwarn):
    with pytest.raises(InvariantViolationError) as exc:
        quantile_from_samples(samples)
    assert str(exc.value) == message
    assert exc.value.index == 0
    # the draws are checked before numpy computes a quantile of them
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_running_maximum_repairs_only_drops_beyond_the_slack():
    stack = np.array([[0.0, 1.0, 1.0 - 0.5 * POINT_TOL, 2.0], [0.0, 1.0, 1.0 - 2.0 * POINT_TOL, 2.0]])
    out = _nondecreasing(stack.copy())
    np.testing.assert_array_equal(out[0], stack[0])
    np.testing.assert_array_equal(out[1], [0.0, 1.0, 1.0, 2.0])


# This curve drops 8.7e-11 at its end, inside the slack, but the plain average
# of three copies drops 1.16e-10 and needs the repair. PAV_MEAN is what the
# pool-adjacent-violators projection this space once used returned for it.
REPAIR_ROW = [91294.46776531238, 145754.7203029883, 209760.77740163874, 209760.77740163865]
PAV_MEAN = [91294.46776531237, 145754.7203029883, 209760.7774016387, 209760.7774016387]


def test_mean_repairs_a_drop_that_averaging_widens():
    stack = np.array([REPAIR_ROW] * 3)
    assert np.diff(np.average(stack, axis=0))[-1] < -POINT_TOL
    means = (mean(stack)[0], frechet_mean([QuantileCurve(REPAIR_ROW)] * 3).mean.values)
    for values in means:
        assert np.all(np.diff(values) >= 0.0)
        np.testing.assert_allclose(values, PAV_MEAN, rtol=0.0, atol=POINT_TOL)
