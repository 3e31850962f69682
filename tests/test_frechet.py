import numpy as np
import pytest
from scipy.stats import norm

from geodid import estimate_gatt, frechet_mean, placebo_pretrend
from geodid.geometry import _BACKENDS, distance
from geodid.io import point_to_jsonable
from geodid.panel import PanelDataset
from geodid.spaces import sphere as ssp
from geodid.spaces.matrix import SymmetricMatrixPoint
from geodid.spaces.sphere import UnitCompositionPoint
from geodid.spaces.wasserstein import QuantileCurve, midpoint_grid

from conftest import random_composition, random_curve, random_matrix

SAMPLERS = {
    "wasserstein": lambda rng: random_curve(rng, grid_size=30),
    "sphere": lambda rng: random_composition(rng, dim=4),
    "frobenius": lambda rng: random_matrix(rng, size=3),
}


def gaussian_curve(mu, sigma, m=100):
    return QuantileCurve(mu + sigma * norm.ppf(midpoint_grid(m)))


def objective(candidate, points, weights=None):
    if weights is None:
        weights = np.full(len(points), 1.0 / len(points))
    return sum(w * distance(candidate, p) ** 2 for w, p in zip(weights, points))


def test_single_point_is_its_own_mean():
    for point in (
        gaussian_curve(1, 2),
        UnitCompositionPoint([0.6, 0.8, 0.0]),
        SymmetricMatrixPoint(np.eye(3)),
    ):
        result = frechet_mean([point])
        assert distance(result.mean, point) < 1e-12
        assert result.iterations <= ssp.MEAN_MAX_ITER


def test_empty_input_rejected():
    from geodid.errors import EmptyGroupError

    with pytest.raises(EmptyGroupError):
        frechet_mean([])


def test_wasserstein_mean_of_location_family():
    a = gaussian_curve(0, 1)
    b = gaussian_curve(2, 1)
    result = frechet_mean([a, b])
    np.testing.assert_allclose(result.mean.values, gaussian_curve(1, 1).values, atol=1e-12)


def test_wasserstein_mean_matches_grid_search():
    # brute force over location-scale candidates around the analytic answer
    points = [gaussian_curve(0, 1), gaussian_curve(1, 2), gaussian_curve(3, 1)]
    result = frechet_mean(points)
    best = objective(result.mean, points)
    rng = np.random.default_rng(7)
    for _ in range(200):
        mu = rng.uniform(0.5, 2.5)
        sigma = rng.uniform(0.8, 2.0)
        assert best <= objective(gaussian_curve(mu, sigma), points) + 1e-12
    # quantile-wise average is the exact minimizer
    stacked = np.mean([p.values for p in points], axis=0)
    np.testing.assert_allclose(result.mean.values, stacked, atol=1e-14)


def test_frobenius_mean_is_entrywise_average():
    rng = np.random.default_rng(3)
    points = [random_matrix(rng) for _ in range(5)]
    result = frechet_mean(points)
    np.testing.assert_allclose(
        result.mean.entries,
        np.mean([p.entries for p in points], axis=0),
        atol=1e-14,
    )


def test_frobenius_mean_matches_grid_search():
    a = SymmetricMatrixPoint([[0.0, 1.0], [1.0, 0.0]])
    b = SymmetricMatrixPoint([[2.0, 1.0], [1.0, 2.0]])
    result = frechet_mean([a, b])
    best = objective(result.mean, [a, b])
    rng = np.random.default_rng(5)
    for _ in range(200):
        cand = random_matrix(rng, size=2)
        assert best <= objective(cand, [a, b]) + 1e-12


def test_sphere_two_point_mean_is_arc_midpoint():
    e1 = UnitCompositionPoint([1.0, 0.0, 0.0])
    e2 = UnitCompositionPoint([0.0, 1.0, 0.0])
    result = frechet_mean([e1, e2])
    np.testing.assert_allclose(
        result.mean.coords, [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], atol=1e-10
    )
    assert result.iterations <= ssp.MEAN_MAX_ITER


def test_sphere_mean_matches_arc_grid_oracle():
    # exhaustive search over a fine great-circle arc between two points,
    # evaluated against the iterative solution for a three-point cloud
    rng = np.random.default_rng(11)
    points = [random_composition(rng, dim=3) for _ in range(3)]
    result = frechet_mean(points)
    best = objective(result.mean, points)
    for _ in range(500):
        cand = random_composition(rng, dim=3)
        assert best <= objective(cand, points) + 1e-10
    # dense grid on the arc through the first two points
    from geodid.geometry import Geodesic

    arc = Geodesic(points[0], points[1])
    for t in np.linspace(0, 1, 201):
        assert best <= objective(arc(t), points) + 1e-10


def test_sphere_mean_first_order_condition():
    rng = np.random.default_rng(13)
    points = [random_composition(rng, dim=4) for _ in range(6)]
    result = frechet_mean(points)
    grad = np.sum([ssp.log_map(result.mean.coords, p.coords) for p in points], axis=0)
    assert np.linalg.norm(grad) / len(points) < 1e-8


def test_objective_not_above_any_input_point():
    rng = np.random.default_rng(17)
    for sample in (
        lambda: random_curve(rng, grid_size=50),
        lambda: random_composition(rng, dim=4),
        lambda: random_matrix(rng),
    ):
        points = [sample() for _ in range(4)]
        result = frechet_mean(points)
        for p in points:
            assert objective(result.mean, points) <= objective(p, points) + 1e-10


def test_group_means_splits_by_treatment():
    outcomes = tuple(
        (SymmetricMatrixPoint([[float(i)]]), SymmetricMatrixPoint([[float(10 + i)]]))
        for i in range(4)
    )
    treatment = np.array([[0, 0], [0, 0], [0, 1], [0, 1]])
    means = estimate_gatt(PanelDataset(outcomes, treatment)).means
    assert means[(0, 1)].entries[0, 0] == pytest.approx(10.5)
    assert means[(1, 1)].entries[0, 0] == pytest.approx(12.5)


@pytest.mark.parametrize("space", sorted(SAMPLERS))
def test_group_means_equal_frechet_mean_of_the_points(space):
    # the estimators' means of panel slices, through the placebo's group split
    rng = np.random.default_rng(31)
    outcomes = [[SAMPLERS[space](rng) for _ in range(3)] for _ in range(15)]
    treatment = np.zeros((15, 3), dtype=int)
    panel = PanelDataset(outcomes, treatment)
    for selector in (rng.random(15) < 0.4, np.arange(15) == 6):
        for periods in ((0, 1), (1, 2)):
            means = placebo_pretrend(panel, periods, groups=selector.astype(int)).means
            for (d, i), from_panel in means.items():
                units = np.flatnonzero(selector == d)
                from_points = frechet_mean([outcomes[u][periods[i]] for u in units])
                # every float (and the matrix kind) exactly equal
                assert point_to_jsonable(from_panel) == point_to_jsonable(from_points.mean)
                iterations = _BACKENDS[space].means([panel.data[units, periods[i]]])[0][1]
                assert iterations == from_points.iterations


def test_mixed_kind_frobenius_panel_averages_to_free():
    lap = SymmetricMatrixPoint([[1.0, -1.0], [-1.0, 1.0]], kind="laplacian")
    # neither kind is free, so only the common-kind rule can give free
    cov = SymmetricMatrixPoint([[2.0, 0.5], [0.5, 1.0]], kind="covariance")
    panel = PanelDataset([[lap, lap], [lap, lap], [cov, cov]], np.zeros((3, 2), dtype=int))
    assert panel.fields == {"kind": "free"}
    # the two Laplacian units alone still average to kind free: the kind is the panel's
    mean = placebo_pretrend(panel, (0, 1), groups=[1, 1, 0]).means[(1, 1)]
    assert mean.kind == "free"
    np.testing.assert_array_equal(mean.entries, lap.entries)
    assert frechet_mean([lap, cov]).mean.kind == "free"
    assert frechet_mean([lap, lap]).mean.kind == "laplacian"
