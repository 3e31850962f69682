import json
from dataclasses import replace

import numpy as np
import pytest

from geodid import staggered
from geodid.did import estimate_gatt
from geodid.errors import EmptyCohortError, InadmissibleCellError
from geodid.geometry import _BACKENDS, distance
from geodid.io import staggered_to_jsonable
from geodid.panel import PanelDataset
from geodid.spaces.matrix import SymmetricMatrixPoint
from geodid.staggered import (
    COMPARISON_NEVER,
    COMPARISON_NOT_YET,
    FORM_RECURSIVE,
    FORM_SHORTCUT,
    GroupTimeCell,
    cell_admissible,
    enumerate_cells,
    estimate_all_cells,
    estimate_group_time_gatt,
)

from conftest import one_unit_cohort_panel, random_composition, random_curve


def scalar(x):
    return SymmetricMatrixPoint(np.array([[float(x)]]))


def treatment_row(group, n_periods):
    """0/1 indicators for a unit first treated at period `group` (None = never)."""
    if group is None:
        return [0] * n_periods
    return [int(t >= group) for t in range(n_periods)]


def staggered_scalar_panel(unit_specs, n_periods):
    """unit_specs: list of (group-or-None, [y_0, ..., y_{T}])."""
    outcomes, treatment = [], []
    for group, ys in unit_specs:
        assert len(ys) == n_periods
        outcomes.append(tuple(scalar(y) for y in ys))
        treatment.append(treatment_row(group, n_periods))
    return PanelDataset(tuple(outcomes), np.array(treatment))


def random_staggered_panel(rng, space, groups, n_periods, units_per_group=3):
    outcomes, treatment = [], []
    for group in groups:
        for _ in range(units_per_group):
            if space == "wasserstein":
                row = tuple(random_curve(rng, grid_size=40) for _ in range(n_periods))
            elif space == "sphere":
                row = tuple(random_composition(rng, dim=3) for _ in range(n_periods))
            else:
                mats = rng.normal(size=(n_periods, 2, 2))
                row = tuple(SymmetricMatrixPoint(m + m.T) for m in mats)
            outcomes.append(row)
            treatment.append(treatment_row(group, n_periods))
    return PanelDataset(tuple(outcomes), np.array(treatment))


def test_enumerate_with_never_treated():
    panel = staggered_scalar_panel(
        [
            (None, [0.0, 0.0, 0.0]),
            (1, [0.0, 0.0, 0.0]),
            (2, [0.0, 0.0, 0.0]),
        ],
        n_periods=3,
    )
    for comparison in (COMPARISON_NEVER, COMPARISON_NOT_YET):
        cells = enumerate_cells(panel, delta=0, comparison=comparison)
        assert {(c.g, c.t) for c in cells} == {(1, 1), (1, 2), (2, 2)}


def test_enumerate_without_never_treated():
    # latest adopters act as the comparison pool; their own cells drop out
    panel = staggered_scalar_panel(
        [(1, [0.0, 0.0, 0.0]), (2, [0.0, 0.0, 0.0])],
        n_periods=3,
    )
    cells = enumerate_cells(panel, delta=0, comparison=COMPARISON_NOT_YET)
    assert {(c.g, c.t) for c in cells} == {(1, 1)}


def test_enumerate_with_anticipation():
    panel = staggered_scalar_panel(
        [(None, [0.0] * 4), (2, [0.0] * 4), (3, [0.0] * 4)],
        n_periods=4,
    )
    cells = enumerate_cells(panel, delta=1, comparison=COMPARISON_NEVER)
    assert {(c.g, c.t) for c in cells} == {(2, 1), (2, 2), (3, 2)}


def test_inadmissible_anticipation_cell_refused():
    panel = staggered_scalar_panel(
        [(None, [0.0, 0.0, 0.0]), (2, [0.0, 0.0, 0.0])],
        n_periods=3,
    )
    cell = GroupTimeCell(g=2, t=1)
    assert not cell_admissible(panel, cell)
    with pytest.raises(InadmissibleCellError):
        estimate_group_time_gatt(panel, cell)


@pytest.mark.parametrize("t, delta", [(0, 0), (4, 0), (3, 1)], ids=["before-1", "past-T-1", "past-T-1-delta"])
def test_cell_period_outside_one_to_the_last_period_less_delta_is_refused(t, delta):
    panel = staggered_scalar_panel([(None, [0.0] * 4), (2, [0.0] * 4)], n_periods=4)
    cell = GroupTimeCell(g=2, t=t, delta=delta)
    assert not cell_admissible(panel, cell)
    with pytest.raises(InadmissibleCellError) as info:
        estimate_group_time_gatt(panel, cell)
    assert str(info.value) == f"cell (g=2, t={t}, delta={delta}, never) is not admissible for this panel"


POINT_ARRAY = {"wasserstein": "values", "sphere": "coords", "frobenius": "entries"}


def bits(gatt):
    """The raw bits of an estimate's effect endpoints and magnitude."""
    arrays = [getattr(p, POINT_ARRAY[p.space_id]) for p in (gatt.effect.start, gatt.effect.end)]
    return [np.ascontiguousarray(a, dtype=float).view(np.uint64).tolist() for a in arrays] + [
        np.array([gatt.magnitude]).view(np.uint64).tolist()
    ]


def test_two_period_cell_reduces_to_did():
    rng = np.random.default_rng(37)
    for space in POINT_ARRAY:
        panel = random_staggered_panel(rng, space, [None, None, 1, 1], n_periods=2)
        plain = estimate_gatt(panel)
        result = estimate_group_time_gatt(panel, GroupTimeCell(g=1, t=1))
        assert bits(result) == bits(plain)


def test_recursive_beta_path_on_linear_trend():
    # comparison cohort trends +2 per period, treated group starts at 10:
    # the transported baseline should walk 10, 12, 14; observed treated
    # outcomes add an extra +1 per treated period
    panel = staggered_scalar_panel(
        [
            (None, [0.0, 2.0, 4.0]),
            (None, [1.0, 3.0, 5.0]),
            (1, [10.0, 13.0, 16.0]),
        ],
        n_periods=3,
    )
    cell = GroupTimeCell(g=1, t=2)
    result = estimate_group_time_gatt(panel, replace(cell, estimator_form=FORM_RECURSIVE))
    assert result.estimator_form == FORM_RECURSIVE
    path = [p.entries[0, 0] for p in result.beta_path]
    assert path == pytest.approx([10.0, 12.0, 14.0])
    assert result.magnitude == pytest.approx(2.0)


@pytest.mark.parametrize("space", ["wasserstein", "frobenius"])
def test_shortcut_matches_recursive(space):
    rng = np.random.default_rng(41)
    for _ in range(10):
        panel = random_staggered_panel(
            rng, space, [None, None, 1, 2, 3], n_periods=4, units_per_group=2
        )
        for cell in enumerate_cells(panel):
            short = estimate_group_time_gatt(panel, cell)
            assert short.estimator_form == FORM_SHORTCUT
            rec = estimate_group_time_gatt(panel, replace(cell, estimator_form=FORM_RECURSIVE))
            assert distance(short.effect.start, rec.effect.start) < 1e-8
            assert abs(short.magnitude - rec.magnitude) < 1e-8
            if cell.t == cell.g - cell.delta:
                # one step from the base period: the two forms are one walk
                assert bits(short) == bits(rec)


def test_sphere_defaults_to_recursive_and_refuses_shortcut():
    rng = np.random.default_rng(43)
    panel = random_staggered_panel(rng, "sphere", [None, None, 1, 2], n_periods=3)
    cell = GroupTimeCell(g=1, t=2)
    result = estimate_group_time_gatt(panel, cell)
    assert result.estimator_form == FORM_RECURSIVE
    forced = GroupTimeCell(g=1, t=2, estimator_form=FORM_SHORTCUT)
    with pytest.raises(InadmissibleCellError):
        estimate_group_time_gatt(panel, forced)


def test_empty_cohort_error_names_period():
    panel = staggered_scalar_panel(
        [(1, [0.0, 1.0, 2.0]), (2, [0.0, 1.0, 2.0])],
        n_periods=3,
    )
    cell = GroupTimeCell(g=1, t=1, comparison=COMPARISON_NEVER)
    with pytest.raises(EmptyCohortError) as exc:
        estimate_group_time_gatt(panel, cell)
    assert exc.value.period == 0
    assert "period 0" in str(exc.value)


def test_empty_cohort_raises_before_any_mean(monkeypatch):
    panel = staggered_scalar_panel(
        [(1, [0.0, 1.0, 2.0]), (2, [0.0, 1.0, 2.0])],
        n_periods=3,
    )
    calls = record_means(monkeypatch, "frobenius")
    with pytest.raises(EmptyCohortError):
        estimate_group_time_gatt(panel, GroupTimeCell(g=1, t=1, comparison=COMPARISON_NEVER))
    assert calls == []


@pytest.mark.parametrize(
    "groups", [(None, None), (2, 2)], ids=["never-treated only", "one cohort, no never-treated"]
)
@pytest.mark.parametrize(
    "scheme", [{"delta": -1}, {"comparison": "bogus"}], ids=["negative delta", "unknown comparison"]
)
def test_scheme_is_checked_on_a_panel_without_cells(groups, scheme):
    panel = staggered_scalar_panel([(g, [0.0, 1.0, 2.0]) for g in groups], n_periods=3)
    with pytest.raises(ValueError):
        enumerate_cells(panel, **scheme)
    with pytest.raises(ValueError):
        estimate_all_cells(panel, **scheme)


@pytest.mark.parametrize(
    "groups", [(None, None), (None, 1)], ids=["no treated unit", "one treated unit"]
)
def test_estimator_form_is_checked_on_a_panel_with_or_without_cells(groups):
    panel = staggered_scalar_panel([(g, [0.0, 1.0]) for g in groups], n_periods=2)
    with pytest.raises(ValueError, match="unknown estimator form 'bogus'"):
        estimate_all_cells(panel, estimator_form="bogus")


def test_estimate_all_cells_runs_every_admissible_cell():
    rng = np.random.default_rng(47)
    panel = random_staggered_panel(rng, "frobenius", [None, 1, 2], n_periods=3)
    results = estimate_all_cells(panel)
    assert {(r.cell.g, r.cell.t) for r in results} == {(1, 1), (1, 2), (2, 2)}
    for r in results:
        assert r.magnitude >= 0.0


def test_not_yet_treated_uses_larger_pool():
    # at (g=1, t=1) the not-yet-treated pool includes group 2 units, so the
    # two comparison schemes disagree when group 2 trends differently
    panel = staggered_scalar_panel(
        [
            (None, [0.0, 1.0, 2.0]),
            (2, [0.0, 3.0, 6.0]),
            (1, [5.0, 6.0, 7.0]),
        ],
        n_periods=3,
    )
    cell_never = GroupTimeCell(g=1, t=1, comparison=COMPARISON_NEVER)
    cell_notyet = GroupTimeCell(g=1, t=1, comparison=COMPARISON_NOT_YET)
    never = estimate_group_time_gatt(panel, cell_never)
    notyet = estimate_group_time_gatt(panel, cell_notyet)
    assert never.magnitude == pytest.approx(0.0, abs=1e-12)
    # pooled trend is (1 + 3) / 2 = 2, so the counterfactual overshoots by 1
    assert notyet.magnitude == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("delta", [0, 1, 2])
def test_not_yet_treated_mask_is_untreated_at_t_plus_delta_and_not_g(delta):
    # the cohort "first treated after t + delta" is the units untreated at
    # t + delta outside group g, on every admissible cell
    rng = np.random.default_rng(61 + delta)
    cells_seen = 0
    for _ in range(20):
        n_periods = int(rng.integers(3, 8))
        first = rng.integers(1, n_periods + 1, size=int(rng.integers(4, 15)))
        first[rng.random(first.size) < 0.3] = n_periods  # never treated
        treatment = (np.arange(n_periods)[None, :] >= first[:, None]).astype(int)
        data = rng.normal(size=(first.size, n_periods, 1, 1))
        panel = PanelDataset.from_array(data, treatment, "frobenius", {"kind": "free"})
        labels = panel.group_label_array
        for cell in enumerate_cells(panel, delta=delta, comparison=COMPARISON_NOT_YET):
            expected = (panel.treatment[:, cell.t + cell.delta] == 0) & (labels != cell.g)
            np.testing.assert_array_equal(staggered._cohort_mask(panel, cell), expected)
            cells_seen += 1
    assert cells_seen > 0


def record_means(monkeypatch, space):
    """Replace the space's batched array `means` by a wrapper that logs the bytes
    of each stack passed to it, which on random outcomes tell the (unit set,
    period) of the mean apart."""
    calls = []
    backend = _BACKENDS[space]
    original = backend.means

    def logged(stacks):
        stacks = list(stacks)
        calls.extend(stack.tobytes() for stack in stacks)
        return original(stacks)

    monkeypatch.setattr(backend, "means", logged)
    return calls


@pytest.mark.parametrize("space", ["wasserstein", "sphere", "frobenius"])
@pytest.mark.parametrize("comparison", [COMPARISON_NEVER, COMPARISON_NOT_YET])
@pytest.mark.parametrize("delta", [0, 1])
def test_estimate_all_cells_computes_each_mean_once(monkeypatch, space, comparison, delta):
    rng = np.random.default_rng(53)
    panel = random_staggered_panel(
        rng, space, [None, None, 2, 2, 3, 4], n_periods=6, units_per_group=2
    )
    calls = record_means(monkeypatch, space)
    forms = [None, FORM_RECURSIVE]
    if _BACKENDS[space].PATH_INDEPENDENT:
        forms.append(FORM_SHORTCUT)
    for form in forms:
        cells = [
            replace(cell, estimator_form=form)
            for cell in enumerate_cells(panel, delta=delta, comparison=comparison)
        ]
        assert len(cells) > 1
        calls.clear()
        one_by_one = [estimate_group_time_gatt(panel, cell) for cell in cells]
        needed = set(calls)
        # cells share means, so the memo has something to save
        assert len(calls) > len(needed)

        for _ in range(2):
            calls.clear()
            together = estimate_all_cells(
                panel, delta=delta, comparison=comparison, estimator_form=form
            )
            # once per distinct (unit set, period), and again on the next call
            assert len(calls) == len(set(calls)) == len(needed)
            assert set(calls) == needed
            # json floats round-trip, so equal text is equal bits
            assert json.dumps(
                staggered_to_jsonable(together, space, delta, comparison)
            ) == json.dumps(staggered_to_jsonable(one_by_one, space, delta, comparison))


def test_not_yet_treated_cells_with_one_unit_cohorts():
    # a one-unit cohort's mean is a Karcher mean of one point, whose log map
    # at its own normalised copy must read 0
    for seed in range(300):
        shares, treatment = one_unit_cohort_panel(seed)
        panel = PanelDataset.from_array(np.sqrt(shares), treatment, "sphere", {})
        results = estimate_all_cells(panel, comparison=COMPARISON_NOT_YET)
        assert len(results) == 6
        assert all(np.isfinite(r.magnitude) for r in results)
