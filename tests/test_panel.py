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
