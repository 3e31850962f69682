"""Points only at the API boundary: the estimators compute on arrays and build a
point only for what they return, each distinct one once."""

import numpy as np
import pytest

from geodid import simulate
from geodid.did import estimate_gatt
from geodid.geometry import _BACKENDS
from geodid.panel import PanelDataset
from geodid.simulate import SimConfig, single_run_error
from geodid.spaces.matrix import SymmetricMatrixPoint
from geodid.spaces.sphere import UnitCompositionPoint
from geodid.spaces.wasserstein import QuantileCurve
from geodid.staggered import COMPARISON_NEVER, COMPARISON_NOT_YET, estimate_all_cells

from conftest import random_composition, random_curve, random_matrix

POINT_TYPES = {
    "wasserstein": QuantileCurve,
    "sphere": UnitCompositionPoint,
    "frobenius": SymmetricMatrixPoint,
}
SAMPLERS = {
    "wasserstein": lambda rng: random_curve(rng, grid_size=30),
    "sphere": lambda rng: random_composition(rng, dim=3),
    "frobenius": lambda rng: random_matrix(rng, size=3),
}


@pytest.fixture
def built(monkeypatch):
    """Every point built from now on: the results of each backend's `wrap` and
    the points its point type constructs (and validates)."""
    points = []
    for space, backend in _BACKENDS.items():

        def wrap(*args, _wrap=backend.wrap, **fields):
            point = _wrap(*args, **fields)
            points.append(point)
            return point

        def post_init(self, _post_init=POINT_TYPES[space].__post_init__):
            _post_init(self)
            points.append(self)

        monkeypatch.setattr(backend, "wrap", wrap)
        monkeypatch.setattr(POINT_TYPES[space], "__post_init__", post_init)
    return points


def panel_of(space, groups, n_periods, seed):
    """Two random units per group; a group is its first treated period, None for never."""
    rng = np.random.default_rng(seed)
    outcomes, treatment = [], []
    for g in groups:
        for _ in range(2):
            outcomes.append([SAMPLERS[space](rng) for _ in range(n_periods)])
            treatment.append([int(g is not None and t >= g) for t in range(n_periods)])
    return PanelDataset(outcomes, np.array(treatment))


def ids(points):
    return [id(p) for p in points]


@pytest.mark.parametrize(
    "config",
    [SimConfig(space="wasserstein", n=40, seed=1), SimConfig(space="network", n=40, seed=1),
     SimConfig(space="network", n=20, seed=0, alpha1=1e8)],
    ids=["wasserstein", "network", "network-alpha1-1e8"],
)
def test_single_run_error_builds_no_point_but_the_truth(monkeypatch, built, config):
    truths = []

    def generate_panel(config, rng):
        panel, truth = generate(config, rng)
        truths.append(truth)
        return panel, truth

    generate = simulate.generate_panel
    monkeypatch.setattr(simulate, "generate_panel", generate_panel)
    for run in range(4):
        built.clear()
        assert single_run_error(config, run) is not None
        assert sorted(ids(built)) == sorted(ids([truths[-1].start, truths[-1].end]))


@pytest.mark.parametrize("space", sorted(SAMPLERS))
def test_estimate_gatt_builds_its_five_output_points(built, space):
    panel = panel_of(space, (None, None, 1, 1), n_periods=2, seed=5)
    built.clear()
    estimate = estimate_gatt(panel)
    assert estimate.effect.end is estimate.means[(1, 1)]
    outputs = [*estimate.means.values(), estimate.effect.start]
    assert sorted(ids(built)) == sorted(ids(outputs))
    assert len(set(ids(outputs))) == 5


@pytest.mark.parametrize("comparison", [COMPARISON_NEVER, COMPARISON_NOT_YET])
@pytest.mark.parametrize("space", sorted(SAMPLERS))
def test_estimate_all_cells_builds_each_output_point_once(built, space, comparison):
    panel = panel_of(space, (None, 1, 2, 2, 3), n_periods=5, seed=7)
    built.clear()
    cells = estimate_all_cells(panel, comparison=comparison)
    assert len(cells) > 1
    outputs = {id(p) for r in cells for p in (*r.beta_path, r.effect.start, r.effect.end)}
    # the treated means are shared between cells, so fewer points than output slots
    assert len(outputs) < sum(len(r.beta_path) + 1 for r in cells)
    assert len(built) == len(set(ids(built)))
    assert set(ids(built)) == outputs
