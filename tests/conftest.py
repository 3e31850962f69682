"""Hypothesis profiles, random-point samplers and the planted staggered panels
shared by the property tests."""

import numpy as np
from hypothesis import settings
from scipy.stats import norm

from geodid.geometry import _BACKENDS
from geodid.panel import PanelDataset
from geodid.spaces import sphere
from geodid.spaces.matrix import SymmetricMatrixPoint
from geodid.spaces.sphere import embed_composition
from geodid.spaces.wasserstein import DEFAULT_GRID_SIZE, QuantileCurve, midpoint_grid

# tests whose @settings give no example count take it from the profile; CI
# runs the data-file reader's differential tests again with `--hypothesis-profile=ci`
settings.register_profile("default", max_examples=200, database=None, deadline=None)
settings.register_profile("ci", settings.get_profile("default"), max_examples=2000)


def random_matrix(rng, size=4, scale=1.0):
    """Random symmetric matrix (kind 'free')."""
    a = rng.normal(0.0, scale, (size, size))
    return SymmetricMatrixPoint(0.5 * (a + a.T))


def random_composition(rng, dim=3):
    """Random point in the interior of the positive orthant of the sphere."""
    shares = rng.dirichlet(np.full(dim, 5.0))
    shares = np.clip(shares, 1e-6, None)
    return embed_composition(shares / shares.sum())


def random_curve(rng, grid_size=DEFAULT_GRID_SIZE, loc_scale=2.0):
    """Random strictly increasing quantile curve (Gaussian family)."""
    mu = rng.normal(0.0, loc_scale)
    sigma = 0.3 + rng.uniform(0.0, loc_scale)
    return QuantileCurve(mu + sigma * norm.ppf(midpoint_grid(grid_size)))


# first treated period per unit (None is never treated): three controls and
# one unit in each of cohorts 2, 3 and 4, over five periods
ONE_UNIT_COHORTS = (None, None, None, 2, 3, 4)


def one_unit_cohort_panel(seed):
    """(shares, treatment) of a seeded `ONE_UNIT_COHORTS` panel: Dirichlet(5)
    compositions of 5 parts."""
    shares = np.random.default_rng(seed).dirichlet(np.full(5, 5.0), size=(len(ONE_UNIT_COHORTS), 5))
    treatment = np.array([[int(g is not None and t >= g) for t in range(5)] for g in ONE_UNIT_COHORTS])
    return shares, treatment


def _planted_wasserstein(rng, n_periods, n_cohorts):
    """Gaussian quantile curves on a 10-point grid. The trend's scale is 2
    times a walk; cohort r's base has 0.2 + 0.25 r times the trend's scale at
    period 0 and a location within 0.05 of those scales of the trend's. The
    transport maps are then affine maps shared by every cohort, each
    cohort's curve lies inside the never-treated and every later cohort's
    (their mixtures too) even once shifted by its effect of 0.3-0.4, and
    transport never clamps it to the grid's ends."""
    z = norm.ppf(midpoint_grid(10))
    mu = rng.uniform(-1.0, 1.0) + np.cumsum(rng.uniform(-0.3, 0.3, n_periods))
    sigma = 2.0 * np.exp(np.cumsum(rng.uniform(-0.1, 0.1, n_periods)))
    trend = mu[:, None] + sigma[:, None] * z
    bases = [mu[0] + sigma[0] * (rng.uniform(-0.05, 0.05) + (0.2 + 0.25 * r) * z) for r in range(n_cohorts)]
    shifts = rng.uniform(0.3, 0.4, n_cohorts)
    return trend, bases, lambda u, r: u + shifts[r]


def _planted_sphere(rng, n_periods, n_cohorts):
    """Interior points of the 3-part orthant; the trend takes steps of at most
    0.01 rad, and cohort r's effect moves 0.3-0.4 rad towards vertex r mod 3,
    so every point and transport stays inside the orthant."""
    points = np.sqrt(rng.dirichlet(np.full(3, 20.0), size=1 + n_cohorts))
    trend = [points[0]]
    for _ in range(n_periods - 1):
        v = rng.normal(size=3)
        v -= (v @ trend[-1]) * trend[-1]
        trend.append(sphere.exp_map(trend[-1], rng.uniform(0.0, 0.01) * v / np.linalg.norm(v)))
    angles = rng.uniform(0.3, 0.4, n_cohorts)

    def effect(u, r):
        v = np.eye(3)[r % 3] - u[r % 3] * u
        return sphere.exp_map(u, angles[r] * v / np.linalg.norm(v))

    return np.array(trend), list(points[1:]), effect


def _planted_frobenius(rng, n_periods, n_cohorts):
    """Symmetric 2x2 matrices: a random-walk trend, and cohort r's effect is
    0.5-1 times one fixed matrix, so effects never cancel in a mean."""
    a = rng.normal(size=(1 + n_periods + n_cohorts, 2, 2))
    a = a + np.swapaxes(a, 1, 2)
    trend = a[0] + np.cumsum(0.5 * a[1 : 1 + n_periods], axis=0)
    sizes = rng.uniform(0.5, 1.0, n_cohorts)
    return trend, list(a[1 + n_periods :]), lambda u, r: u + sizes[r] * np.array([[1.0, 0.5], [0.5, 1.0]])


PLANTED_DESIGNS = {
    "wasserstein": _planted_wasserstein,
    "sphere": _planted_sphere,
    "frobenius": _planted_frobenius,
}


def planted_panel(space, cohorts, units_per_group, n_periods, seed, anticipation, shared=False):
    """A seeded staggered panel whose every cell's counterfactual is known.

    `units_per_group` never-treated units and as many of each distinct
    first-treated period in `cohorts` share their cohort's trajectory. The
    never-treated one is the control trend. Cohort g's untreated path is its
    base moved along the trend by the space's `transport` one period at a
    time, and from period g - `anticipation` on it is observed with its
    planted effect applied. With `shared`, every base is the trend's first
    point, so every untreated path is the trend.

    Returns the panel and, per cohort g, its (n_periods, *shape) untreated path.
    """
    groups = sorted(set(cohorts))
    trend, bases, effect = PLANTED_DESIGNS[space](np.random.default_rng(seed), n_periods, len(groups))
    transport = _BACKENDS[space].transport
    rows, treatment, untreated = [trend], [[0] * n_periods], {}
    for r, g in enumerate(groups):
        path = [trend[0] if shared else bases[r]]
        for s in range(n_periods - 1):
            path.append(transport(trend[s], trend[s + 1], path[-1]))
        untreated[g] = np.array(path)
        rows.append([effect(u, r) if s >= g - anticipation else u for s, u in enumerate(path)])
        treatment.append([int(s >= g) for s in range(n_periods)])
    data = np.repeat(np.array(rows), units_per_group, axis=0)
    fields = {"kind": "free"} if space == "frobenius" else {}
    panel = PanelDataset.from_array(data, np.repeat(treatment, units_per_group, axis=0), space, fields)
    return panel, untreated
