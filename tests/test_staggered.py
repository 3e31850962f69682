import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from geodid import staggered
from geodid.did import estimate_gatt
from geodid.errors import EmptyCohortError, InadmissibleCellError, KindViolationWarning
from geodid.geometry import _BACKENDS, distance
from geodid.io import staggered_to_jsonable
from geodid.panel import PanelDataset
from geodid.spaces.matrix import KIND_FREE, KIND_LAPLACIAN, SymmetricMatrixPoint
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


def oracle_group_structure(panel):
    """Observed finite groups, and the latest-adopter marker g-bar (the
    package's rule before it listed the admissible cells from ranges)."""
    labels = panel.group_label_array
    finite = [int(g) for g in np.unique(labels[np.isfinite(labels)])]
    gbar = math.inf if np.isinf(labels).any() else max(finite)
    return [g for g in finite if g != gbar], gbar


def oracle_admissible(cell, groups, gbar, horizon):
    """The side conditions of the (g, t) cell, one at a time, on a panel of
    `oracle_group_structure` (groups, gbar) and horizon T - 1."""
    g, t, delta = cell.g, cell.t, cell.delta
    if g not in groups or not (1 + delta <= g <= horizon + delta):
        return False
    if not (1 <= t <= horizon - delta):
        return False
    if t < g - delta:
        return False
    if cell.comparison == COMPARISON_NOT_YET and not t < gbar - delta:
        return False
    return True


def test_admissible_cells_match_the_per_cell_oracle_on_every_cohort_design():
    started = time.perf_counter()
    designs = 0
    for n_periods in range(2, 7):
        for k, never in itertools.product(range(n_periods), (False, True)):
            for cohorts in itertools.combinations(range(1, n_periods), k):
                if not cohorts and not never:
                    continue
                first = np.array(list(cohorts) + [n_periods] * never)
                treatment = (np.arange(n_periods)[None, :] >= first[:, None]).astype(int)
                panel = PanelDataset.from_array(
                    np.zeros((len(first), n_periods, 1, 1)), treatment, "frobenius", {"kind": "free"}
                )
                groups, gbar = oracle_group_structure(panel)
                for delta, comparison in itertools.product((0, 1, 2), (COMPARISON_NEVER, COMPARISON_NOT_YET)):
                    expected = [
                        cell
                        for g in groups
                        for t in range(1, n_periods - delta)
                        if oracle_admissible(cell := GroupTimeCell(g, t, delta, comparison), groups, gbar, n_periods - 1)
                    ]
                    assert enumerate_cells(panel, delta=delta, comparison=comparison) == expected
                    for g, t in itertools.product({*cohorts, 0, n_periods}, range(-1, n_periods + 1)):
                        cell = GroupTimeCell(g, t, delta, comparison)
                        assert cell_admissible(panel, cell) == oracle_admissible(cell, groups, gbar, n_periods - 1)
                designs += 1
    assert designs == 2 * (2 + 4 + 8 + 16 + 32) - 5
    assert time.perf_counter() - started < 1.0


def laplacian_panel(weights, groups):
    """A panel of 2 x 2 Laplacians [[w, -w], [-w, w]], one unit per row of
    `weights` (w at each period), first treated at the unit's entry of `groups`
    (None = never treated)."""
    weights = np.array(weights, dtype=float)
    data = weights[..., None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    treatment = np.array([treatment_row(g, weights.shape[1]) for g in groups])
    return PanelDataset.from_array(data, treatment, "frobenius", {"kind": KIND_LAPLACIAN})


def weight(point):
    return point.entries[0, 0]


def test_a_transport_that_breaks_the_laplacian_kind_leaves_the_rest_of_the_walk_free():
    # the control trend 5 -> 1 carries the treated weight 1 to -3: a positive
    # off-diagonal entry, so that point and every point moved from it are
    # free; the next steps (+5, +1) bring the weight back to 2 and 3, which
    # pass the Laplacian check on their own
    two = laplacian_panel([[1.0, 2.0], [5.0, 1.0]], [1, None])
    with pytest.warns(KindViolationWarning) as record:
        estimate = estimate_gatt(two)
    assert len([w for w in record if w.category is KindViolationWarning]) == 1
    assert (weight(estimate.effect.start), estimate.effect.start.kind) == (-3.0, KIND_FREE)
    assert {key: p.kind for key, p in estimate.means.items()} == dict.fromkeys(estimate.means, KIND_LAPLACIAN)

    panel = laplacian_panel([[1.0, 1.0, 1.0, 2.0], [5.0, 1.0, 6.0, 7.0]], [1, None])
    cell = GroupTimeCell(g=1, t=3, estimator_form=FORM_RECURSIVE)
    with pytest.warns(KindViolationWarning) as record:
        result = estimate_group_time_gatt(panel, cell)
    assert len([w for w in record if w.category is KindViolationWarning]) == 1
    assert [(weight(p), p.kind) for p in result.beta_path] == [
        (1.0, KIND_LAPLACIAN), (-3.0, KIND_FREE), (2.0, KIND_FREE), (3.0, KIND_FREE)
    ]
    assert result.effect.start is result.beta_path[-1]
    assert result.effect.end.kind == KIND_LAPLACIAN
    # every cell of the call breaks at its first step, once
    with pytest.warns(KindViolationWarning) as record:
        results = estimate_all_cells(panel, estimator_form=FORM_RECURSIVE)
    assert len([w for w in record if w.category is KindViolationWarning]) == 3
    assert [[p.kind for p in r.beta_path] for r in results] == [
        [KIND_LAPLACIAN] + [KIND_FREE] * r.cell.t for r in results
    ]


def test_a_bad_comparison_is_named_before_a_bad_form():
    panel = staggered_scalar_panel([(None, [0.0, 1.0]), (1, [0.0, 1.0])], n_periods=2)
    with pytest.raises(ValueError, match="unknown comparison scheme 'bogus'"):
        estimate_all_cells(panel, comparison="bogus", estimator_form="bogus")
    with pytest.raises(ValueError, match="unknown comparison scheme 'bogus'"):
        GroupTimeCell(g=1, t=1, comparison="bogus", estimator_form="bogus")


def test_sphere_shortcut_is_refused_only_where_a_cell_is_admissible():
    rng = np.random.default_rng(59)
    without = random_staggered_panel(rng, "sphere", [None, None], n_periods=3)
    assert estimate_all_cells(without, estimator_form=FORM_SHORTCUT) == []
    with_cells = random_staggered_panel(rng, "sphere", [None, 1, 2], n_periods=3)
    with pytest.raises(InadmissibleCellError, match="shortcut form requires a path-independent"):
        estimate_all_cells(with_cells, estimator_form=FORM_SHORTCUT)
