"""Synthetic data-generating processes and the Monte Carlo convergence driver.

Two DGPs are provided: Gaussian quantile curves observed through finite
samples (Wasserstein space) and weighted stochastic-block-model networks
observed as graph Laplacians (Frobenius space). `_DGPS` is the one table that
maps a `SimConfig.space` to its DGP: the bound on its values that `SimConfig`
checks for overflow, its outcome draw and its true effect. `generate_panel`
writes the two-period design once for every DGP: the treatment draw, then the
DGP's outcomes, the panel and the truth. The driver estimates the
treatment-effect geodesic on each replicated panel, measures the error in the
quotient metric anchored at the true counterfactual mean, and fits a log-log
slope across sample sizes.
"""

import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .did import walks
from .errors import GeodidError
from .geometry import _BACKENDS, Geodesic
from .panel import PanelDataset
from .spaces.matrix import SymmetricMatrixPoint, KIND_FREE, KIND_LAPLACIAN, row_sums
from .spaces.wasserstein import QuantileCurve, _sample_quantiles, midpoint_grid

# the largest |normal quantile| of a uniform draw in (0, 1) on numpy's 2**-53 lattice
_Z_MAX = float(-ndtri(2.0**-53))
# units whose Laplacians the network DGP builds at a time: a block's draws and
# weights (276 KB at m = 10) stay in cache; blocks of 256 and 512 units took
# more page faults per replicate
_BLOCK_UNITS = 128


@dataclass(frozen=True)
class SimConfig:
    space: str = "wasserstein"
    n: int = 200
    q: int = 200
    treat_prob: float = 0.25
    seed: int = 0
    # Wasserstein DGP
    grid_size: int = 100
    sample_size_per_dist: int = 100
    # shared trend/effect coefficients
    alpha1: float = 1.0
    alpha2: float = 1.0
    alpha3: float = 1.0
    beta: float = 1.0
    # network DGP: block sizes and edge probabilities
    m1: int = 5
    m2: int = 5
    p11: float = 0.5
    p12: float = 0.2  # an edge joins its two blocks both ways
    p22: float = 0.5

    def __post_init__(self):
        if self.space not in _DGPS:
            raise ValueError(f"unknown simulation space {self.space!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.treat_prob < 1.0:
            raise ValueError("treat_prob must be in (0, 1)")
        if self.n < 4:
            raise ValueError("need at least 4 units")
        if self.q < 1:
            raise ValueError("need at least one Monte Carlo run")
        if self.sample_size_per_dist < 2:
            raise ValueError("need at least 2 samples per distribution")
        if self.grid_size < 2:
            raise ValueError(f"grid_size must be >= 2, got {self.grid_size}")
        for p in (self.p11, self.p12, self.p22):
            if not 0.0 <= p <= 1.0:
                raise ValueError("edge probabilities must lie in [0, 1]")
        # a network needs at least one edge, so at least two nodes, and an
        # m x m Laplacian that numpy can index (which keeps m a float, too)
        m = self.m1 + self.m2
        if self.m1 < 0 or self.m2 < 0 or not 2 <= m <= math.isqrt(sys.maxsize):
            raise ValueError(
                f"block sizes m1 and m2 must be >= 0 with m1 + m2 in [2, {math.isqrt(sys.maxsize)}]"
            )
        coefs = [abs(c) for c in (self.alpha1, self.alpha2, self.alpha3, self.beta)]
        bound, size = _DGPS[self.space].bound(self, *coefs)
        # a replicate's error sums `size` squares of differences between points
        # made of a few means and transports, each difference at most 16 * bound
        square = (16.0 * bound) * (16.0 * bound)
        # the size, an int that may not fit a float, is compared, not multiplied
        if not all(map(math.isfinite, (*coefs, bound, square))) or square and size > sys.float_info.max / square:
            raise ValueError(f"coefficients are not finite or overflow the {self.space} DGP or its error")

    @property
    def p21(self):
        """The edge probability from block 2 to block 1, which is `p12`."""
        return self.p12


@dataclass(frozen=True)
class SimReport:
    space: str
    seed: int
    q: int
    n_values: tuple
    errors: dict            # n -> list of per-run errors (failed runs excluded)
    mean_error: dict        # n -> mean error
    excluded: dict          # n -> count of failed runs
    slope: float            # None when fewer than two sizes, or a mean error is 0
    intercept: float
    runs: dict              # n -> run number of each entry of errors[n]


def _run_rng(config, run):
    # keyed by (seed, n, run) so results do not depend on execution order
    return np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(config.n, run))
    )


def _wasserstein_bound(config, a1, a2, a3, b):
    return a2 + (a1 + b) * _Z_MAX, config.grid_size


def true_wasserstein_gatt(config):
    """Population treatment-effect geodesic of the Gaussian quantile DGP."""
    z = ndtri(midpoint_grid(config.grid_size))
    # nu_{1,0} and nu_{0,0} coincide, so the transported start equals nu_{0,1};
    # mu + sigma z has scale |sigma|, whatever the sign of sigma
    start = QuantileCurve(config.alpha2 + abs(config.alpha1) * z)
    end = QuantileCurve(config.alpha2 + abs(config.alpha1 + config.beta) * z)
    return Geodesic(start, end)


def _draw_wasserstein(config, d, rng):
    """Empirical quantile curves of both periods."""
    n, s = config.n, config.sample_size_per_dist
    curves = np.empty((n, 2, config.grid_size))
    for t in (0, 1):
        mu = rng.normal(config.alpha2 * t, 1.0, size=n)
        sigma = config.alpha1 + config.beta * d * t
        # inverse-CDF sampling keeps a single source of truth for the normal quantile
        draws = mu[:, None] + sigma[:, None] * ndtri(rng.random((n, s)))
        curves[:, t, :] = _sample_quantiles(draws, config.grid_size)
    return curves, "wasserstein", {}


def _block_probabilities(config):
    m = config.m1 + config.m2
    membership = np.array([0] * config.m1 + [1] * config.m2)
    p = np.array([[config.p11, config.p12], [config.p12, config.p22]])
    probs = p[np.ix_(membership, membership)]
    np.fill_diagonal(probs, 0.0)
    return m, probs


def _network_bound(config, a1, a2, a3, b):
    if max(config.p11, config.p12, config.p22) > 0.0:
        # a degree sums m - 1 edge weights, each the trend plus noise in [-1, 1)
        m = config.m1 + config.m2
        return (m - 1) * (a1 + a2 + a3 + b + 1.0), m**2
    return 0.0, 0  # no edge can exist, so every weight and error is 0


def true_network_gatt(config):
    """Population treatment-effect geodesic of the weighted-SBM DGP."""
    _, probs = _block_probabilities(config)
    w00, w01, w10, w11 = (
        config.alpha1 + config.alpha2 * t + d * (config.alpha3 + config.beta * t)
        for d in (0, 1) for t in (0, 1)
    )

    def mean_laplacian(weight):
        # a config admits a weight that overflows only when no edge can exist,
        # and an edge that never exists weighs 0 (inf * 0 would be NaN)
        lap = -probs * weight if math.isfinite(weight) else np.zeros_like(probs)
        np.fill_diagonal(lap, 0.0)
        np.fill_diagonal(lap, -lap.sum(axis=1))
        return lap

    def point(entries, weight):
        # a negative mean weight gives positive off-diagonal entries
        return SymmetricMatrixPoint(entries, kind=KIND_LAPLACIAN if weight >= 0.0 else KIND_FREE)

    start = mean_laplacian(w10) + mean_laplacian(w01) - mean_laplacian(w00)
    return Geodesic(point(start, w10 + w01 - w00), point(mean_laplacian(w11), w11))


def _draw_network(config, d, rng):
    """Graph Laplacians of both periods, built a block of units at a time."""
    n = config.n
    m, probs = _block_probabilities(config)
    iu = np.triu_indices(m, k=1)
    n_edges = len(iu[0])
    edge_probs = probs[iu]
    t, dc = np.arange(2), d[:, None]
    # a weight overflows only when no edge can exist (see SimConfig): the
    # absent-edge branch below then gives every weight 0
    with np.errstate(over="ignore"):
        base = (config.alpha1 + config.alpha2 * t + config.alpha3 * dc + config.beta * dc * t)[..., None]
    finite = np.isfinite(base).all()
    # one gather builds a block's Laplacians from its (k, 2, n_edges) weights:
    # cell (i, j) reads edge {i, j}'s weight in both triangles, and the
    # diagonal, which reads edge 0, is then set to 0
    cell_edge = np.zeros((m, m), dtype=np.intp)
    cell_edge[iu] = cell_edge[iu[::-1]] = np.arange(n_edges)
    laps = np.empty((n, 2, m, m))
    kind = KIND_LAPLACIAN
    for start in range(0, n, _BLOCK_UNITS):
        stop = min(start + _BLOCK_UNITS, n)
        # per unit and period the edge-presence uniforms, then the edge-noise
        # ones, as a unit-by-unit loop draws them (rng.uniform(-1, 1) computes
        # -1 + 2u); blocks of whole units take the doubles one draw would
        draws = rng.random((stop - start, 2, 2, n_edges))
        present = draws[:, :, 0] < edge_probs
        # the weights are a contiguous copy of the noise draws, which numpy
        # steps through several times faster than the strided draws
        w = np.multiply(draws[:, :, 1], 2.0)
        w += -1.0
        w += base[start:stop]
        if finite:
            # a present weight is never -0.0, so adding 0.0 only turns the
            # absent ones' -0.0 into +0.0; inf * 0 would be NaN, hence the guard
            w *= present
            w += 0.0
        else:
            w[~present] = 0.0
        if not w.min() >= 0.0:
            kind = KIND_FREE
        # the block's Laplacians are finished while it is in cache: -W, then
        # the degrees, W's row sums, on the diagonal
        block = laps[start:stop]
        np.take(w, cell_edge, axis=-1, out=block, mode="clip")
        diagonal = block.reshape(-1, m * m)[:, :: m + 1]
        diagonal[...] = 0.0
        degrees = row_sums(block)
        np.negative(block, out=block)
        diagonal[...] = degrees.reshape(diagonal.shape)
    return laps, "frobenius", {"kind": kind}


@dataclass(frozen=True)
class _Dgp:
    bound: object  # (config, |alpha1|, |alpha2|, |alpha3|, |beta|) -> (value bound, point size)
    draw: object   # (config, d, rng) -> (data, space_id, fields) of both periods
    truth: object  # config -> true effect geodesic


# the one table from a simulation space to its DGP, in the CLI's order
_DGPS = {
    "wasserstein": _Dgp(_wasserstein_bound, _draw_wasserstein, true_wasserstein_gatt),
    "network": _Dgp(_network_bound, _draw_network, true_network_gatt),
}


def generate_panel(config, rng):
    """Two-period panel of the config's DGP, plus the true effect."""
    dgp = _DGPS[config.space]
    d = (rng.random(config.n) < config.treat_prob).astype(int)
    data, space_id, fields = dgp.draw(config, d, rng)
    treatment = np.column_stack([np.zeros(config.n, dtype=int), d])
    return PanelDataset.from_array(data, treatment, space_id, fields), dgp.truth(config)


def single_run_error(config, run):
    """One replication: generate, estimate, measure error in the quotient metric.

    Returns the error, or None when estimating or measuring failed (e.g. an
    empty group, or an estimated start curve that is constant and cannot be
    transported).
    """
    rng = _run_rng(config, run)
    panel, truth = generate_panel(config, rng)
    backend, treated = _BACKENDS[panel.space_id], panel.treatment[:, 1] == 1
    try:
        [(path, treated_end, _)] = walks(panel, [(treated, ~treated, (0, 1))])
        (start, end), _ = backend.unwrap((truth.start, truth.end))
        # `quotient_distance(estimate, truth, reference=truth.start)` on
        # stacks of one (two calls: stacking the pairs costs more than a call)
        start = start[None]
        moved = backend.transport(path[-1][None], treated_end[None], start)
        return float(backend.distance(moved, backend.transport(start, end[None], start))[0])
    except GeodidError:
        return None


def worker_count():
    raw = os.environ.get("GEODID_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def slope_regression(points):
    """Least-squares slope and intercept for (log n, log mean-error) pairs."""
    points = list(points)
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if len(set(xs.tolist())) < 2:
        raise ValueError("slope regression needs at least two distinct x values")
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def run_monte_carlo(base, n_values, workers=None):
    """Run `base.q` replications at each sample size and fit the log-log convergence slope.

    Each size runs `base` with only its `n` replaced; the sizes must be distinct.
    """
    n_values = tuple(n_values)
    if not n_values or len(set(n_values)) != len(n_values):
        raise ValueError(f"sample sizes must be distinct and at least one, got {list(n_values)}")
    if workers is None:
        workers = worker_count()

    configs = [replace(base, n=n) for n in n_values]
    jobs = [(config, run) for config in configs for run in range(base.q)]
    # a fork-started pool starts all its processes at once, whatever the job count
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(single_run_error, *zip(*jobs), chunksize=8))
    else:
        results = list(map(single_run_error, *zip(*jobs)))

    errors = {n: [] for n in n_values}
    runs = {n: [] for n in n_values}
    excluded = {n: 0 for n in n_values}
    for (config, run), err in zip(jobs, results):
        if err is None:
            excluded[config.n] += 1
        else:
            errors[config.n].append(float(err))
            runs[config.n].append(run)
    mean_error = {
        n: float(np.mean(errs)) for n, errs in errors.items() if errs
    }

    slope = intercept = None
    # a log-log fit needs two sizes, and a zero error has no log
    if len(mean_error) >= 2 and min(mean_error.values()) > 0.0:
        slope, intercept = slope_regression(
            [(np.log(n), np.log(e)) for n, e in sorted(mean_error.items())]
        )
    return SimReport(
        space=base.space,
        seed=base.seed,
        q=base.q,
        n_values=n_values,
        errors=errors,
        mean_error=mean_error,
        excluded=excluded,
        slope=slope,
        intercept=intercept,
        runs=runs,
    )
