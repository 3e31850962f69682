import numpy as np
import pytest

from geodid.did import estimate_gatt, placebo_pretrend
from geodid.errors import EmptyGroupError, InvariantViolationError
from geodid.panel import PanelDataset
from geodid.spaces.matrix import SymmetricMatrixPoint


def scalar(x):
    return SymmetricMatrixPoint(np.array([[float(x)]]))


def scalar_panel(control_rows, treated_rows):
    """Build a two-period panel from lists of (y0, y1) scalar outcomes."""
    outcomes = []
    treatment = []
    for y0, y1 in control_rows:
        outcomes.append((scalar(y0), scalar(y1)))
        treatment.append([0, 0])
    for y0, y1 in treated_rows:
        outcomes.append((scalar(y0), scalar(y1)))
        treatment.append([0, 1])
    return PanelDataset(tuple(outcomes), np.array(treatment))


def test_scalar_oracle_single_units():
    # one control (a -> b), one treated (c -> e): DID effect is e - c - (b - a)
    a, b, c, e = 1.0, 4.0, 2.0, 9.0
    panel = scalar_panel([(a, b)], [(c, e)])
    est = estimate_gatt(panel)
    assert est.magnitude == pytest.approx(abs(e - c - (b - a)), abs=1e-12)
    assert est.effect.start.entries[0, 0] == pytest.approx(c + (b - a))
    assert est.means[(0, 0)].entries[0, 0] == a
    assert est.means[(1, 1)].entries[0, 0] == e


def test_no_effect_gives_zero_magnitude():
    panel = scalar_panel([(0.0, 1.0), (2.0, 3.0)], [(5.0, 6.0), (7.0, 8.0)])
    est = estimate_gatt(panel)
    assert est.magnitude < 1e-12


def test_scalar_reduction_random_panels():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n_c, n_t = rng.integers(1, 6, size=2)
        control = rng.normal(size=(n_c, 2))
        treated = rng.normal(size=(n_t, 2))
        panel = scalar_panel(control.tolist(), treated.tolist())
        est = estimate_gatt(panel)
        expected = abs(
            treated[:, 1].mean()
            - treated[:, 0].mean()
            - (control[:, 1].mean() - control[:, 0].mean())
        )
        assert est.magnitude == pytest.approx(expected, abs=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(31)
    control = rng.normal(size=(6, 2)).tolist()
    treated = rng.normal(size=(5, 2)).tolist()
    base = estimate_gatt(scalar_panel(control, treated)).magnitude
    for _ in range(10):
        rng.shuffle(control)
        rng.shuffle(treated)
        again = estimate_gatt(scalar_panel(control, treated)).magnitude
        assert abs(again - base) < 1e-9


def test_requires_both_groups():
    with pytest.raises(EmptyGroupError):
        estimate_gatt(scalar_panel([], [(0.0, 1.0)]))
    with pytest.raises(EmptyGroupError):
        estimate_gatt(scalar_panel([(0.0, 1.0)], []))


def test_requires_two_periods():
    outcomes = ((scalar(0), scalar(1), scalar(2)),)
    panel = PanelDataset(outcomes, np.array([[0, 0, 0]]))
    with pytest.raises(InvariantViolationError):
        estimate_gatt(panel)


def test_error_decreases_with_sample_size():
    # scalar additive model: effect 1.0, noise sd 1; estimation error should
    # shrink in n (median over repeated draws)
    def run(n, seed):
        rng = np.random.default_rng(seed)
        treated = rng.random(n) < 0.5
        y0 = rng.normal(size=n)
        y1 = y0 + 1.0 + treated * 1.0 + rng.normal(scale=0.5, size=n)
        control_rows = [(y0[i], y1[i]) for i in range(n) if not treated[i]]
        treated_rows = [(y0[i], y1[i]) for i in range(n) if treated[i]]
        est = estimate_gatt(scalar_panel(control_rows, treated_rows))
        return abs(est.magnitude - 1.0)

    medians = []
    for n in (50, 200, 1000):
        errs = [run(n, 1000 + n + r) for r in range(21)]
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]


def test_placebo_zero_on_parallel_pretrends():
    # periods 0 and 1 are both untreated with a common trend of +1
    outcomes = tuple(
        (scalar(base), scalar(base + 1.0), scalar(base + 2.0))
        for base in (0.0, 1.0, 5.0, 6.0)
    )
    treatment = np.array([[0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 1]])
    panel = PanelDataset(outcomes, treatment)
    est = placebo_pretrend(panel, pre_periods=(0, 1))
    assert est.magnitude < 1e-12


def test_placebo_detects_broken_pretrend():
    # eventually-treated units trend +2 pre-treatment while controls trend +1
    outcomes = (
        (scalar(0.0), scalar(1.0), scalar(2.0)),
        (scalar(1.0), scalar(2.0), scalar(3.0)),
        (scalar(5.0), scalar(7.0), scalar(9.0)),
        (scalar(6.0), scalar(8.0), scalar(10.0)),
    )
    treatment = np.array([[0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 1]])
    panel = PanelDataset(outcomes, treatment)
    est = placebo_pretrend(panel, pre_periods=(0, 1))
    assert est.magnitude == pytest.approx(1.0, abs=1e-12)


def test_placebo_rejects_treated_pre_period():
    outcomes = tuple((scalar(0), scalar(1), scalar(2)) for _ in range(2))
    treatment = np.array([[0, 0, 0], [0, 1, 1]])
    panel = PanelDataset(outcomes, treatment)
    with pytest.raises(InvariantViolationError):
        placebo_pretrend(panel, pre_periods=(0, 1))


def test_placebo_explicit_groups_override():
    outcomes = tuple(
        (scalar(base), scalar(base + 1.0)) for base in (0.0, 1.0, 2.0, 3.0)
    )
    treatment = np.zeros((4, 2), dtype=int)
    panel = PanelDataset(outcomes, treatment)
    with pytest.raises(EmptyGroupError):
        placebo_pretrend(panel, pre_periods=(0, 1))
    est = placebo_pretrend(panel, pre_periods=(0, 1), groups=[0, 0, 1, 1])
    assert est.magnitude < 1e-12
