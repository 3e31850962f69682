"""Random-point samplers shared by the property tests."""

import numpy as np
from scipy.stats import norm

from geodid.spaces.matrix import SymmetricMatrixPoint
from geodid.spaces.sphere import embed_composition
from geodid.spaces.wasserstein import DEFAULT_GRID_SIZE, QuantileCurve, midpoint_grid


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
