import math

import numpy as np
import pytest

from geodid.errors import InvariantViolationError, SpaceMismatchError
from geodid.panel import NEVER_TREATED, PanelDataset
from geodid.spaces.matrix import SymmetricMatrixPoint
from geodid.spaces.wasserstein import QuantileCurve


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
    assert sub.outcomes[0][1].entries[0, 0] == 1.0
    np.testing.assert_array_equal(sub.treatment, [[0, 0], [0, 0]])


def test_subset_periods_with_replacement_treatment():
    panel = make_panel([[0, 0, 0], [0, 0, 0]])
    new_treat = np.array([[0, 1], [0, 0]])
    sub = panel.subset_periods((1, 2), treatment=new_treat)
    np.testing.assert_array_equal(sub.treatment, new_treat)
