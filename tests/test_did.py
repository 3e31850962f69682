import numpy as np
import pytest

from geodid.did import estimate_gatt, placebo_pretrend
from geodid.errors import EmptyGroupError, InvariantViolationError
from geodid.panel import PanelDataset
from geodid.spaces.matrix import SymmetricMatrixPoint

from conftest import random_composition, random_curve, random_matrix


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


SAMPLERS = {
    "wasserstein": lambda rng: random_curve(rng, grid_size=20).values,
    "sphere": lambda rng: random_composition(rng, dim=4).coords,
    "frobenius": lambda rng: random_matrix(rng, size=3).entries,
}
FIELDS = {"wasserstein": {}, "sphere": {}, "frobenius": {"kind": "free"}}
POINT_ARRAY = {"wasserstein": "values", "sphere": "coords", "frobenius": "entries"}


def bits(estimate):
    """The raw bits of an estimate's effect endpoints, magnitude and four means."""
    points = [estimate.effect.start, estimate.effect.end]
    points += [estimate.means[key] for key in sorted(estimate.means)]
    arrays = [getattr(p, POINT_ARRAY[p.space_id]) for p in points]
    return [np.ascontiguousarray(a, dtype=float).view(np.uint64).tolist() for a in arrays] + [
        np.array([estimate.magnitude]).view(np.uint64).tolist()
    ]


def four_period_panel(space, seed, n=9):
    """Random panel of n units over four periods; a third of them are treated at period 3."""
    rng = np.random.default_rng(seed)
    data = np.array([[SAMPLERS[space](rng) for _ in range(4)] for _ in range(n)])
    treatment = np.zeros((n, 4), dtype=int)
    treatment[n - n // 3 :, 3] = 1
    return PanelDataset.from_array(data, treatment, space, FIELDS[space])


@pytest.mark.parametrize("explicit_groups", [False, True], ids=["ever-treated", "groups"])
@pytest.mark.parametrize("pre_periods", [(0, 1), (0, 2), (1, 2)])
@pytest.mark.parametrize("space", sorted(SAMPLERS))
def test_placebo_is_the_estimator_on_the_two_period_panel(space, pre_periods, explicit_groups):
    # the placebo equals, bit for bit, estimate_gatt on the two chosen periods
    # with the placebo groups as the period-1 treatment
    panel = four_period_panel(space, seed=len(space) + 10 * sum(pre_periods))
    groups = np.isfinite(panel.group_label_array).astype(int)
    if explicit_groups:
        groups = np.roll(groups, 2)
    a, b = pre_periods
    two_period = PanelDataset.from_array(
        panel.data[:, [a, b]],
        np.column_stack([np.zeros(panel.n_units, dtype=int), groups]),
        space,
        panel.fields,
    )
    placebo = placebo_pretrend(
        panel, pre_periods=pre_periods, groups=groups if explicit_groups else None
    )
    assert bits(placebo) == bits(estimate_gatt(two_period))


def test_placebo_builds_no_panel(monkeypatch):
    panel = four_period_panel("frobenius", seed=3)

    def no_new_panel(*args, **kwargs):
        raise AssertionError("placebo built a panel")

    monkeypatch.setattr(PanelDataset, "from_array", no_new_panel)
    assert placebo_pretrend(panel, pre_periods=(0, 2)).magnitude >= 0.0


@pytest.mark.parametrize(
    "groups",
    [[0.5, 0, 1, 1], [[0], [0], [1], [1]], [0, 1, 1], [0, 2, 1, 1]],
    ids=["fraction", "column", "short", "not-0-or-1"],
)
def test_placebo_rejects_malformed_groups(groups):
    outcomes = tuple((scalar(base), scalar(base + 1.0)) for base in (0.0, 1.0, 2.0, 3.0))
    panel = PanelDataset(outcomes, np.zeros((4, 2), dtype=int))
    with pytest.raises(InvariantViolationError, match="groups must list 4 indicators of 0 or 1"):
        placebo_pretrend(panel, pre_periods=(0, 1), groups=groups)


@pytest.mark.parametrize("pre_periods", [(1, 0), (0, 2)], ids=["reversed", "past-the-last-period"])
def test_placebo_rejects_a_pre_period_pair_out_of_order_or_range(pre_periods):
    outcomes = tuple((scalar(base), scalar(base + 1.0)) for base in (0.0, 1.0, 2.0, 3.0))
    panel = PanelDataset(outcomes, np.zeros((4, 2), dtype=int))
    with pytest.raises(InvariantViolationError) as info:
        placebo_pretrend(panel, pre_periods=pre_periods, groups=[0, 0, 1, 1])
    assert str(info.value) == f"invalid pre-period pair {pre_periods}"
