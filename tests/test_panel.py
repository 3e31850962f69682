import copy
import math

import numpy as np
import pytest

from geodid.errors import InvariantViolationError, SpaceMismatchError
from geodid.geometry import _BACKENDS, Geodesic, frechet_mean
from geodid.panel import _VALIDATE_BLOCK_BYTES, NEVER_TREATED, PanelDataset
from geodid.spaces.matrix import SymmetricMatrixPoint
from geodid.spaces.wasserstein import QuantileCurve
from geodid.staggered import estimate_all_cells

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
    assert panel.group_label_array.tolist() == [NEVER_TREATED, 1, 2]


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
    assert panel.group_label_array[0] == math.inf
    assert panel.group_label_array[1] == 1


def loop_group_labels(treatment):
    """The per-unit loop `group_label_array` replaced, kept as its oracle."""
    labels = []
    for row in treatment:
        treated = np.flatnonzero(row)
        labels.append(int(treated[0]) if len(treated) else NEVER_TREATED)
    return labels


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
        labels = panel.group_label_array
        assert labels.tolist() == loop_group_labels(panel.treatment)
        assert not labels.flags.writeable
        assert panel.group_label_array is labels


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


def valid_stack(space, k, rng):
    """k valid points of `space` as one (k, *shape) array: Laplacians of 4
    nodes, quantile curves of 8 values or 4-part compositions."""
    if space == "frobenius":
        w = rng.uniform(0.0, 1.0, (k, 4, 4))
        w = np.triu(w, 1) + np.swapaxes(np.triu(w, 1), 1, 2)
        return np.eye(4) * w.sum(axis=2)[:, :, None] - w
    if space == "wasserstein":
        return np.sort(rng.normal(size=(k, 8)), axis=1)
    x = np.abs(rng.normal(size=(k, 4))) + 0.1
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# per space, two defects whose checks run in one order in `validate`: the
# first breaks the later check and goes in block 0, the second breaks the
# earlier check and goes in block 2, so a panel that raised block 0's error
# would name the wrong unit and the wrong defect
DEFECTS = {
    "frobenius": [
        lambda e: e + 0.5 * (np.ones_like(e) - np.eye(len(e))),  # positive off-diagonal: not a Laplacian
        lambda e: np.where(np.eye(len(e), dtype=bool), np.nan, e),
    ],
    "wasserstein": [lambda v: v[::-1], lambda v: np.where(np.arange(len(v)) == 3, np.inf, v)],
    "sphere": [lambda c: np.array([-0.6, 0.8, 0.0, 0.0]), lambda c: 1.5 * c],
}
KIND = {"frobenius": {"kind": "laplacian"}, "wasserstein": {}, "sphere": {}}


def whole_stack_error(space, data):
    """The message a panel of `data` must raise: whole-stack `validate`'s,
    located at its unit and period."""
    periods = data.shape[1]
    with pytest.raises(InvariantViolationError) as caught:
        _BACKENDS[space].validate(data.reshape(-1, *data.shape[2:]), **KIND[space])
    i, t = divmod(caught.value.index, periods)
    return f"unit {i} period {t}: {caught.value}"


@pytest.mark.parametrize("space", sorted(DEFECTS))
def test_block_validation_raises_the_whole_stack_error(space):
    rng = np.random.default_rng(5)
    point_bytes = valid_stack(space, 1, rng)[0].nbytes
    block = _VALIDATE_BLOCK_BYTES // point_bytes
    # two full blocks and about half of a third, two periods per unit
    stack = valid_stack(space, 2 * (5 * block // 4), rng)
    data = stack.reshape(len(stack) // 2, 2, *stack.shape[1:])
    treatment = np.zeros(data.shape[:2], dtype=int)
    PanelDataset.from_array(data, treatment, space, KIND[space])
    late_check, early_check = DEFECTS[space]
    early, late = 5, 2 * block + 7
    two = data.copy()
    two.reshape(stack.shape)[early] = late_check(stack[early])
    two.reshape(stack.shape)[late] = early_check(stack[late])
    one = data.copy()
    one.reshape(stack.shape)[-1] = late_check(stack[-1])
    for bad, row in ((two, late), (one, len(stack) - 1)):
        expected = whole_stack_error(space, bad)
        assert expected.startswith(f"unit {row // 2} period {row % 2}: ")
        with pytest.raises(InvariantViolationError) as caught:
            PanelDataset.from_array(bad, treatment, space, KIND[space])
        assert str(caught.value) == expected


@pytest.mark.parametrize("space", sorted(SAMPLERS))
def test_points_and_panels_compare_and_hash_by_identity(space):
    rng = np.random.default_rng(0)
    point, other = SAMPLERS[space](rng), SAMPLERS[space](rng)
    twin = copy.copy(point)
    assert np.array_equal(ARRAY_OF[space](twin), ARRAY_OF[space](point))
    # equal arrays, yet another object: a point is equal only to itself
    assert point == point and point != twin and len({point, twin, point}) == 2
    panels = [PanelDataset(((point, other), (other, point)), np.array([[0, 0], [0, 1]])) for _ in range(2)]
    assert panels[0] == panels[0] and panels[0] != panels[1] and len(set(panels)) == 2
    # the dataclasses holding points compare them by identity, without raising
    assert Geodesic(point, other) == Geodesic(point, other) != Geodesic(twin, other)
    assert frechet_mean([point, other]) != frechet_mean([point, other])
    first, again = estimate_all_cells(panels[0]), estimate_all_cells(panels[0])
    assert first[0] == first[0] and first[0] != again[0]


@pytest.mark.parametrize(
    "n_units, unit_ids, message",
    [(0, None, "panel has no units or no periods"), (2, ["a"], "unit_ids length mismatch")],
    ids=["no-units", "unit-ids-too-short"],
)
def test_from_array_rejects_no_units_and_a_wrong_count_of_unit_ids(n_units, unit_ids, message):
    data = np.zeros((n_units, 2, 1, 1))
    with pytest.raises(InvariantViolationError) as info:
        PanelDataset.from_array(data, np.zeros((n_units, 2), dtype=int), "frobenius", {"kind": "free"}, unit_ids)
    assert str(info.value) == message
