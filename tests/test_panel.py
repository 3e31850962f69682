import math

import numpy as np
import pytest

from geodid.errors import InvariantViolationError, SpaceMismatchError
from geodid.panel import NEVER_TREATED, PanelDataset
from geodid.spaces.matrix import SymmetricMatrixPoint
from geodid.spaces.wasserstein import QuantileCurve

from conftest import random_composition, random_curve, random_matrix

SAMPLERS = {
    "wasserstein": lambda rng: random_curve(rng, grid_size=30),
    "sphere": lambda rng: random_composition(rng, dim=4),
    "frobenius": lambda rng: random_matrix(rng, size=3),
}
ARRAY_OF = {
    "wasserstein": lambda p: p.values,
    "sphere": lambda p: p.coords,
    "frobenius": lambda p: p.entries,
}
FIELDS = {"wasserstein": {}, "sphere": {}, "frobenius": {"kind": "free"}}


def scalar(x):
    return SymmetricMatrixPoint(np.array([[float(x)]]))


def make_panel(treatment):
    treatment = np.array(treatment)
    n, t = treatment.shape
    outcomes = tuple(
        tuple(scalar(i * 10 + s) for s in range(t)) for i in range(n)
    )
    return PanelDataset(outcomes, treatment)


def test_basic_properties():
    panel = make_panel([[0, 0, 0], [0, 1, 1], [0, 0, 1]])
    assert panel.n_units == 3
    assert panel.n_periods == 3
    assert panel.space_id == "frobenius"
    assert panel.group_labels == (NEVER_TREATED, 1, 2)
    np.testing.assert_array_equal(panel.ever_treated(), [False, True, True])


def test_rejects_treatment_at_period_zero():
    with pytest.raises(InvariantViolationError):
        make_panel([[1, 1]])


def test_rejects_treatment_reversal():
    with pytest.raises(InvariantViolationError):
        make_panel([[0, 1, 0]])


def test_rejects_non_binary_indicators():
    with pytest.raises(InvariantViolationError):
        make_panel([[0, 2]])
    with pytest.raises(InvariantViolationError):
        make_panel([[0, 0.5]])


def test_rejects_mixed_spaces():
    outcomes = (
        (scalar(0), scalar(1)),
        (QuantileCurve([0.0, 1.0]), QuantileCurve([0.0, 1.0])),
    )
    with pytest.raises(SpaceMismatchError):
        PanelDataset(outcomes, np.array([[0, 0], [0, 1]]))


def test_rejects_ragged_outcome_rows():
    outcomes = ((scalar(0), scalar(1)), (scalar(0),))
    with pytest.raises(InvariantViolationError):
        PanelDataset(outcomes, np.array([[0, 0], [0, 0]]))


def test_never_treated_label_is_infinite():
    panel = make_panel([[0, 0], [0, 1]])
    assert panel.group_labels[0] == math.inf
    assert panel.group_labels[1] == 1


def loop_group_labels(treatment):
    """The per-unit loop `group_labels` replaced, kept as its oracle."""
    labels = []
    for row in treatment:
        treated = np.flatnonzero(row)
        labels.append(int(treated[0]) if len(treated) else NEVER_TREATED)
    return tuple(labels)


@pytest.mark.parametrize("design", ["mixed", "all never", "all treated by the end"])
def test_group_labels_match_per_unit_loop(design):
    rng = np.random.default_rng(17)
    for n, t in ((1, 2), (6, 3), (40, 10)):
        # first treated period per unit; t stands for never treated
        first = {
            "mixed": rng.integers(1, t + 1, n),
            "all never": np.full(n, t),
            "all treated by the end": rng.integers(1, t, n),
        }[design]
        panel = make_panel(np.arange(t)[None, :] >= first[:, None])
        labels = panel.group_labels
        assert labels == loop_group_labels(panel.treatment)
        # plain Python values, so JSON output keeps writing "g": 3
        assert all(type(g) is int or (type(g) is float and g == math.inf) for g in labels)
        np.testing.assert_array_equal(panel.group_label_array, np.array(labels, dtype=float))
        assert not panel.group_label_array.flags.writeable
        assert panel.group_labels is labels


def test_subset_periods():
    panel = make_panel([[0, 0, 1], [0, 0, 0]])
    sub = panel.subset_periods((0, 1))
    assert sub.n_periods == 2
    assert sub.point(0, 1).entries[0, 0] == 1.0
    np.testing.assert_array_equal(sub.treatment, [[0, 0], [0, 0]])


def test_subset_periods_with_replacement_treatment():
    panel = make_panel([[0, 0, 0], [0, 0, 0]])
    new_treat = np.array([[0, 1], [0, 0]])
    sub = panel.subset_periods((1, 2), treatment=new_treat)
    np.testing.assert_array_equal(sub.treatment, new_treat)


def random_outcomes(space, n=6, periods=3, seed=41):
    rng = np.random.default_rng(seed)
    return [[SAMPLERS[space](rng) for _ in range(periods)] for _ in range(n)]


@pytest.mark.parametrize("space", sorted(SAMPLERS))
def test_panel_from_points_equals_from_array(space):
    outcomes = random_outcomes(space)
    treatment = np.zeros((6, 3), dtype=int)
    treatment[3:, 2] = 1
    stack = np.array([[ARRAY_OF[space](p) for p in row] for row in outcomes])
    from_points = PanelDataset(outcomes, treatment, unit_ids=list("abcdef"))
    from_array = PanelDataset.from_array(stack, treatment, space, FIELDS[space], list("abcdef"))
    for panel in (from_points, from_array):
        np.testing.assert_array_equal(panel.data, stack)
        np.testing.assert_array_equal(panel.treatment, treatment)
        assert panel.space_id == space
        assert panel.fields == FIELDS[space]
        assert panel.unit_ids == tuple("abcdef")
        assert not panel.data.flags.writeable
        point = panel.point(4, 1)
        assert point.space_id == space
        np.testing.assert_array_equal(ARRAY_OF[space](point), ARRAY_OF[space](outcomes[4][1]))


CORRUPTIONS = {
    "wasserstein": [lambda v: v[::-1], lambda v: np.where(np.arange(len(v)) == 2, np.nan, v)],
    "sphere": [lambda c: 2.0 * c, lambda c: np.full(len(c), np.nan), lambda c: -c],
    "frobenius": [lambda e: e + np.triu(np.ones_like(e), 1), lambda e: e * np.inf],
}


@pytest.mark.parametrize("space", sorted(SAMPLERS))
def test_from_array_names_the_unit_and_period_of_a_bad_point(space):
    stack = np.array([[ARRAY_OF[space](p) for p in row] for row in random_outcomes(space)])
    treatment = np.zeros((6, 3), dtype=int)
    for corrupt in CORRUPTIONS[space]:
        bad = stack.copy()
        bad[4, 2] = corrupt(bad[4, 2])
        with pytest.raises(InvariantViolationError, match="unit 4 period 2: "):
            PanelDataset.from_array(bad, treatment, space, FIELDS[space])
        with pytest.raises(InvariantViolationError, match="unit e period 2: "):
            PanelDataset.from_array(bad, treatment, space, FIELDS[space], list("abcdef"))


def test_from_array_checks_the_matrix_kind_of_every_point():
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    data = np.array([[lap, lap], [lap, -lap]])
    treatment = np.zeros((2, 2), dtype=int)
    PanelDataset.from_array(data, treatment, "frobenius", {"kind": "free"})
    with pytest.raises(InvariantViolationError, match="unit 1 period 1: .*laplacian"):
        PanelDataset.from_array(data, treatment, "frobenius", {"kind": "laplacian"})
    with pytest.raises(InvariantViolationError, match="unknown matrix kind"):
        PanelDataset.from_array(data, treatment, "frobenius", {"kind": "banana"})
    with pytest.raises(InvariantViolationError, match="unknown space"):
        PanelDataset.from_array(data, treatment, "hyperbolic", {})
    with pytest.raises(InvariantViolationError, match="does not match"):
        PanelDataset.from_array(data[:, :1], treatment, "frobenius", {"kind": "free"})


def test_from_array_allows_quantile_drops_within_tolerance_only():
    data = np.tile(np.linspace(0.0, 1.0, 8), (3, 2, 1))
    data[0, 1, 4] = data[0, 1, 3] - 1e-12  # within POINT_TOL: accepted
    treatment = np.zeros((3, 2), dtype=int)
    PanelDataset.from_array(data, treatment, "wasserstein", {})
    data[2, 1, 4] = data[2, 1, 3] - 1e-8
    with pytest.raises(InvariantViolationError, match="unit 2 period 1: .*non-decreasing"):
        PanelDataset.from_array(data, treatment, "wasserstein", {})
