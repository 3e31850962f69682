"""The paper's identities as Hypothesis properties on small random panels of
each space: permutation invariance over units, the scalar DID formula on 1x1
Frobenius panels, `estimate_all_cells` equal to the per-cell estimates, the
shortcut equal to the recursion where transport is path-independent, and
transport along a constant geodesic equal to the identity, every
staggered estimate carried over by an isometry of the space, a planted
effect recovered in every staggered cell, and each walk of one `did.walks`
call the walk that call makes alone."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodid.did import estimate_gatt, walks
from geodid.errors import EmptyGroupError
from geodid.geometry import _BACKENDS, distance
from geodid.io import staggered_to_jsonable
from geodid.panel import PanelDataset
from geodid.staggered import (
    COMPARISON_NEVER,
    COMPARISON_NOT_YET,
    FORM_RECURSIVE,
    FORM_SHORTCUT,
    enumerate_cells,
    estimate_all_cells,
    estimate_group_time_gatt,
)

from conftest import planted_panel

SPACES = ("wasserstein", "sphere", "frobenius")
FIELDS = {"wasserstein": {}, "sphere": {}, "frobenius": {"kind": "free"}}
# criterion 7's bound. A reordered or regrouped sum moves the closed-form means
# by a few ulps, and the Karcher iteration stops once its step is below 1e-10,
# so both forms of one estimate agree far inside it
TOL = 1e-8
# the scalar formula and the estimator add the same numbers in other orders
SCALAR_TOL = 1e-12
# transport from alpha to alpha moves omega by rounding alone: not at all on the
# sphere, and by (omega + alpha) - alpha's two roundings, at most
# eps (|omega| + |alpha|), on matrices. Wasserstein composes alpha's quantile
# function with its CDF: p's error of a few eps is scaled by the quantile's
# slope, at most M (alpha_{M-1} - alpha_0) on a grid of step 1/M, and the
# interpolation adds a few eps of the values' scale
EPS = np.finfo(float).eps
MATRIX_IDENTITY_TOL = 2 * EPS
CDF_ROUND_TRIP_TOL = 8 * EPS
# an isometry applied to every outcome carries every estimate with it. The
# outcomes here are of order 10 in magnitude, and the means, transports and
# distances of an estimate round differently once the isometry has moved or
# reordered their inputs, by some eps of that scale; the bound is absolute
ISOMETRY_TOL = 1e-12
# a planted panel's every cell has a known counterfactual start and end; the
# estimate's means, transports and the planting's transports round apart by
# some eps of the outcomes' scale, of order 1-10; the bound is absolute
PLANTED_TOL = 1e-12
# an effect planted one period early and estimated with no anticipation moves
# each cell's start by at least 0.2 in the planted designs (see conftest.py)
NEGATIVE_CONTROL_MIN = 0.1

PROPERTY = settings(max_examples=200, deadline=None, database=None)
seeds = st.integers(0, 2**32 - 1)


def random_data(rng, space, n_units, n_periods):
    """An `(n_units, n_periods, *point_shape)` stack of outcomes in `space`."""
    shape = (n_units, n_periods)
    if space == "wasserstein":
        steps = rng.uniform(0.1, 1.0, shape + (8,))
        return rng.normal(0.0, 2.0, shape + (1,)) + np.cumsum(steps, axis=-1)
    if space == "sphere":
        # Dirichlet(20) shares keep the means and their transports inside the
        # orthant, where no OrthantExitWarning is due
        return np.sqrt(rng.dirichlet(np.full(3, 20.0), size=shape))
    a = rng.normal(size=shape + (2, 2))
    return a + np.swapaxes(a, -1, -2)


def staggered_panel(space, cohorts, units_per_group, n_periods, seed):
    """A never-treated group and one group per entry of `cohorts` (first treated period)."""
    groups = [None, *cohorts]
    labels = [g for g in groups for _ in range(units_per_group)]
    treatment = np.array([[int(g is not None and t >= g) for t in range(n_periods)] for g in labels])
    data = random_data(np.random.default_rng(seed), space, len(labels), n_periods)
    return PanelDataset.from_array(data, treatment, space, FIELDS[space])


@PROPERTY
@given(
    space=st.sampled_from(SPACES),
    n_control=st.integers(1, 4),
    n_treated=st.integers(1, 4),
    seed=seeds,
)
def test_two_period_estimate_is_invariant_to_unit_order(space, n_control, n_treated, seed):
    rng = np.random.default_rng(seed)
    n = n_control + n_treated
    data = random_data(rng, space, n, 2)
    treatment = np.column_stack([np.zeros(n, dtype=int), np.arange(n) >= n_control])
    order = rng.permutation(n)
    est = estimate_gatt(PanelDataset.from_array(data, treatment, space, FIELDS[space]))
    again = estimate_gatt(
        PanelDataset.from_array(data[order], treatment[order], space, FIELDS[space])
    )
    assert abs(est.magnitude - again.magnitude) <= TOL
    assert distance(est.effect.start, again.effect.start) <= TOL
    assert distance(est.effect.end, again.effect.end) <= TOL


scalars = st.floats(-100.0, 100.0, allow_nan=False)
scalar_rows = st.lists(st.tuples(scalars, scalars), min_size=1, max_size=5)


@PROPERTY
@given(control=scalar_rows, treated=scalar_rows)
def test_scalar_panel_gives_the_did_formula(control, treated):
    rows = np.array(control + treated)
    treatment = np.column_stack([np.zeros(len(rows), dtype=int), np.arange(len(rows)) >= len(control)])
    est = estimate_gatt(
        PanelDataset.from_array(rows[:, :, None, None], treatment, "frobenius", {"kind": "free"})
    )
    c0, c1 = np.mean(control, axis=0)
    t0, t1 = np.mean(treated, axis=0)
    scale = 1.0 + np.abs(rows).max()
    assert est.effect.start.entries[0, 0] == pytest.approx(t0 + (c1 - c0), abs=SCALAR_TOL * scale)
    assert est.magnitude == pytest.approx(abs((t1 - t0) - (c1 - c0)), abs=SCALAR_TOL * scale)


@st.composite
def walk_groups(draw, n_units, n_periods):
    """Up to four (treated mask, control mask, periods) of `did.walks`: masks of
    at least one unit, a control mask that may be the complement or another
    group's, periods a pair or a run, and groups that may repeat."""
    masks = st.sets(st.integers(0, n_units - 1), min_size=1).map(lambda units: np.isin(np.arange(n_units), list(units)))
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        if groups and draw(st.booleans()):
            groups.append(draw(st.sampled_from(groups)))
            continue
        treated = draw(masks)
        choices = [draw(masks)] + [~treated] * (not treated.all()) + [group[1] for group in groups]
        first, last = sorted(draw(st.lists(st.integers(0, n_periods - 1), min_size=2, max_size=2, unique=True)))
        periods = (first, last) if draw(st.booleans()) else range(first, last + 1)
        groups.append((treated, draw(st.sampled_from(choices)), periods))
    return groups


def walk_bits(walk):
    path, end, trend = walk
    return [a.tobytes() for a in path], end.tobytes(), [a.tobytes() for a in trend]


@settings(PROPERTY, max_examples=60)
@given(space=st.sampled_from(SPACES), seed=seeds, data=st.data())
def test_each_walk_of_a_call_is_the_walk_alone(space, seed, data):
    panel = staggered_panel(space, [], 5, 4, seed)
    groups = data.draw(walk_groups(panel.n_units, panel.n_periods))
    together = walks(panel, groups)
    assert len(together) == len(groups)
    for group, walk in zip(groups, together):
        assert walk_bits(walk) == walk_bits(walks(panel, [group])[0])
        assert len(walk[0]) == len(walk[2]) == len(group[2])


@pytest.mark.parametrize("empty, message", [(0, "no treated units"), (1, "no control units")])
def test_walks_refuses_an_empty_group(empty, message):
    panel = staggered_panel("frobenius", [], 4, 2, seed=0)
    good = (np.arange(4) < 2, np.arange(4) >= 2, (0, 1))
    bad = list(good)
    bad[empty] = np.zeros(4, dtype=bool)
    # after a group that is whole, so that every group is checked
    with pytest.raises(EmptyGroupError) as info:
        walks(panel, [good, tuple(bad)])
    assert str(info.value) == message


staggered_designs = {
    "cohorts": st.lists(st.integers(1, 3), min_size=1, max_size=3),
    "units_per_group": st.integers(1, 2),
    "seed": seeds,
    "delta": st.integers(0, 1),
    "comparison": st.sampled_from([COMPARISON_NEVER, COMPARISON_NOT_YET]),
}


@PROPERTY
@given(space=st.sampled_from(SPACES), recursive=st.booleans(), **staggered_designs)
def test_estimate_all_cells_is_the_per_cell_estimates(
    space, recursive, cohorts, units_per_group, seed, delta, comparison
):
    panel = staggered_panel(space, cohorts, units_per_group, 4, seed)
    form = FORM_RECURSIVE if recursive else None
    together = estimate_all_cells(panel, delta=delta, comparison=comparison, estimator_form=form)
    one_by_one = [
        estimate_group_time_gatt(panel, replace(cell, estimator_form=form))
        for cell in enumerate_cells(panel, delta=delta, comparison=comparison)
    ]
    # json floats round-trip, so equal text is equal bits
    assert json.dumps(staggered_to_jsonable(together, space, delta, comparison)) == json.dumps(
        staggered_to_jsonable(one_by_one, space, delta, comparison)
    )


@PROPERTY
@given(space=st.sampled_from(["wasserstein", "frobenius"]), **staggered_designs)
def test_shortcut_equals_recursion_on_path_independent_spaces(
    space, cohorts, units_per_group, seed, delta, comparison
):
    assert _BACKENDS[space].PATH_INDEPENDENT
    panel = staggered_panel(space, cohorts, units_per_group, 4, seed)
    for cell in enumerate_cells(panel, delta=delta, comparison=comparison):
        short = estimate_group_time_gatt(panel, replace(cell, estimator_form=FORM_SHORTCUT))
        rec = estimate_group_time_gatt(panel, replace(cell, estimator_form=FORM_RECURSIVE))
        assert distance(short.effect.start, rec.effect.start) <= TOL
        assert abs(short.magnitude - rec.magnitude) <= TOL


@PROPERTY
@given(space=st.sampled_from(SPACES), scale=st.sampled_from([1e-3, 1.0, 1e8]), seed=seeds)
def test_transport_along_a_constant_geodesic_is_the_identity(space, scale, seed):
    rng = np.random.default_rng(seed)
    alpha, omega = random_data(rng, space, 2, 1)[:, 0]

    def transport(alpha, beta, omega):
        """The backend's transport of one point, a stack of one."""
        return _BACKENDS[space].transport(alpha[None], beta[None], omega[None])[0]

    if space == "sphere":
        out = transport(alpha, alpha.copy(), omega)
        assert out.tobytes() == omega.tobytes()
    elif space == "frobenius":
        alpha, omega = scale * alpha, scale * omega
        out = transport(alpha, alpha.copy(), omega)
        assert (np.abs(out - omega) <= MATRIX_IDENTITY_TOL * (np.abs(omega) + np.abs(alpha))).all()
    else:
        alpha = scale * alpha
        # inside alpha's range, some points on its values; outside it the
        # CDF is clamped to the grid's ends and the map is not the identity
        omega = np.sort(np.concatenate([rng.uniform(alpha[0], alpha[-1], 5), rng.choice(alpha, 3)]))
        out = transport(alpha, alpha.copy(), omega)
        span = alpha[-1] - alpha[0]
        values = max(np.abs(alpha).max(), np.abs(omega).max())
        assert np.abs(out - omega).max() <= CDF_ROUND_TRIP_TOL * (len(alpha) * span + values)


def isometry(space, rng):
    """An isometry of `space` on arrays of points: a permutation of the sphere's
    coordinates, a relabelling P X P^T of the Frobenius nodes, or a common
    shift of every Wasserstein quantile curve."""
    if space == "wasserstein":
        shift = rng.uniform(-5.0, 5.0)
        return lambda x: x + shift
    order = rng.permutation(3 if space == "sphere" else 2)
    if space == "sphere":
        return lambda x: x[..., order]
    return lambda x: x[..., order, :][..., order]


def point_array(point):
    return _BACKENDS[point.space_id].unwrap((point,))[0][0]


# half the examples of the others: each runs up to four estimate_all_cells calls
@settings(PROPERTY, max_examples=100)
@given(space=st.sampled_from(SPACES), **staggered_designs)
def test_isometry_carries_every_staggered_estimate(space, cohorts, units_per_group, seed, delta, comparison):
    panel = staggered_panel(space, cohorts, units_per_group, 4, seed)
    move = isometry(space, np.random.default_rng(seed))
    moved = PanelDataset.from_array(move(panel.data), panel.treatment, space, panel.fields)
    forms = [FORM_RECURSIVE, FORM_SHORTCUT] if _BACKENDS[space].PATH_INDEPENDENT else [FORM_RECURSIVE]
    for form in forms:
        before = estimate_all_cells(panel, delta=delta, comparison=comparison, estimator_form=form)
        after = estimate_all_cells(moved, delta=delta, comparison=comparison, estimator_form=form)
        assert [r.cell for r in after] == [r.cell for r in before]
        for old, new in zip(before, after):
            assert abs(new.magnitude - old.magnitude) <= ISOMETRY_TOL
            pairs = [(old.effect.end, new.effect.end), *zip(old.beta_path, new.beta_path)]
            assert len(new.beta_path) == len(old.beta_path)
            for a, b in pairs:
                assert np.abs(point_array(b) - move(point_array(a))).max() <= ISOMETRY_TOL


planted_designs = {
    "cohorts": st.lists(st.integers(1, 4), min_size=1, max_size=3),
    "units_per_group": st.integers(1, 2),
    "seed": seeds,
}


@settings(PROPERTY, max_examples=100)
@given(
    space=st.sampled_from(SPACES),
    delta=st.integers(0, 1),
    comparison=st.sampled_from([COMPARISON_NEVER, COMPARISON_NOT_YET]),
    **planted_designs,
)
def test_planted_effect_is_recovered_in_every_cell(space, delta, comparison, cohorts, units_per_group, seed):
    # a not-yet mixture of sphere cohorts follows their transports only
    # where the cohorts share one untreated trajectory
    shared = space == "sphere" and comparison == COMPARISON_NOT_YET
    panel, untreated = planted_panel(space, cohorts, units_per_group, 5, seed, delta, shared)
    labels = panel.group_label_array
    forms = [FORM_RECURSIVE, FORM_SHORTCUT] if _BACKENDS[space].PATH_INDEPENDENT else [FORM_RECURSIVE]
    for form in forms:
        results = estimate_all_cells(panel, delta=delta, comparison=comparison, estimator_form=form)
        assert len(results) == len(enumerate_cells(panel, delta=delta, comparison=comparison))
        for r in results:
            g, t = r.cell.g, r.cell.t
            observed = panel.data[np.flatnonzero(labels == g)[0], t]
            assert np.abs(point_array(r.effect.start) - untreated[g][t]).max() <= PLANTED_TOL
            assert np.abs(point_array(r.effect.end) - observed).max() <= PLANTED_TOL


@settings(PROPERTY, max_examples=50)
@given(space=st.sampled_from(SPACES), **planted_designs)
def test_effect_planted_one_period_early_is_missed_without_anticipation(space, cohorts, units_per_group, seed):
    panel, untreated = planted_panel(space, cohorts, units_per_group, 5, seed, anticipation=1)
    backend = _BACKENDS[space]
    comparisons = [COMPARISON_NEVER] if space == "sphere" else [COMPARISON_NEVER, COMPARISON_NOT_YET]
    for comparison in comparisons:
        for r in estimate_all_cells(panel, delta=0, comparison=comparison):
            miss = backend.distance(point_array(r.effect.start)[None], untreated[r.cell.g][r.cell.t][None])[0]
            assert miss > NEGATIVE_CONTROL_MIN
