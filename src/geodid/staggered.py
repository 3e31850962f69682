"""Group-time treatment effects under staggered adoption.

Two comparison schemes are supported: the never-treated cohort and the
not-yet-treated cohort. The estimator transports the treated group's baseline
mean along the comparison cohort's trend: one period at a time in the
recursive form, or in one step from the base period to t in the shortcut
form, which is the same walk on spaces whose transport map is
path-independent and is used there unless the cell asks for the recursion.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyCohortError, InadmissibleCellError
from .geometry import _BACKENDS, Geodesic

COMPARISON_NEVER = "never"
COMPARISON_NOT_YET = "notyet"
FORM_RECURSIVE = "recursive"
FORM_SHORTCUT = "shortcut"


@dataclass(frozen=True)
class GroupTimeCell:
    g: int
    t: int
    delta: int = 0
    comparison: str = COMPARISON_NEVER
    estimator_form: str = None

    def __post_init__(self):
        if self.comparison not in (COMPARISON_NEVER, COMPARISON_NOT_YET):
            raise ValueError(f"unknown comparison scheme {self.comparison!r}")
        if self.estimator_form not in (None, FORM_RECURSIVE, FORM_SHORTCUT):
            raise ValueError(f"unknown estimator form {self.estimator_form!r}")
        if self.delta < 0:
            raise ValueError("anticipation horizon must be >= 0")


@dataclass(frozen=True)
class GroupTimeGatt:
    cell: GroupTimeCell
    effect: Geodesic
    magnitude: float
    beta_path: tuple

    @property
    def estimator_form(self):
        return self.cell.estimator_form


def _group_structure(panel):
    """Observed finite groups, and the latest-adopter marker g-bar."""
    labels = panel.group_label_array
    finite = [int(g) for g in np.unique(labels[np.isfinite(labels)])]
    gbar = math.inf if np.isinf(labels).any() else max(finite)
    return [g for g in finite if g != gbar], gbar


def cell_admissible(panel, cell):
    """Check the side conditions for identification of the (g, t) cell."""
    groups, gbar = _group_structure(panel)
    horizon = panel.n_periods - 1
    g, t, delta = cell.g, cell.t, cell.delta
    if g not in groups or not (1 + delta <= g <= horizon + delta):
        return False
    if not (1 <= t <= horizon - delta):
        return False
    if t < g - delta:
        # anticipation window: the effect is zero by construction, refuse
        return False
    if cell.comparison == COMPARISON_NOT_YET and not t < gbar - delta:
        return False
    return True


def enumerate_cells(panel, delta=0, comparison=COMPARISON_NEVER):
    """All admissible (g, t) cells for the given anticipation horizon."""
    groups, _ = _group_structure(panel)
    horizon = panel.n_periods - 1
    cells = []
    for g in groups:
        for t in range(1, horizon - delta + 1):
            cell = GroupTimeCell(g=g, t=t, delta=delta, comparison=comparison)
            if cell_admissible(panel, cell):
                cells.append(cell)
    return cells


def _cohort_mask(panel, cell):
    labels = panel.group_label_array
    if cell.comparison == COMPARISON_NEVER:
        return np.isinf(labels)
    # first treated after t + delta; admissibility puts g at or before it
    return labels > cell.t + cell.delta


def _memo_mean(backend, panel, mask, period, memo):
    """Mean array over the units in `mask` at `period`, computed once per memo."""
    key = (mask.tobytes(), period)
    if key not in memo:
        memo[key] = backend.mean(panel.data[mask, period])[0]
    return memo[key]


def estimate_group_time_gatt(panel, cell, *, _memo=None):
    """Group-time effect for one admissible cell, in the cell's `estimator_form`
    (None: the shortcut on path-independent spaces, else the recursion).

    `_memo` is two dicts: mean arrays by (unit selector bytes, period), and the
    points of treated means by (g, period); `estimate_all_cells` shares them.
    """
    if not cell_admissible(panel, cell):
        raise InadmissibleCellError(
            f"cell (g={cell.g}, t={cell.t}, delta={cell.delta}, "
            f"{cell.comparison}) is not admissible for this panel"
        )
    backend = _BACKENDS[panel.space_id]
    form = cell.estimator_form
    if form is None:
        form = FORM_SHORTCUT if backend.PATH_INDEPENDENT else FORM_RECURSIVE
    if form == FORM_SHORTCUT and not backend.PATH_INDEPENDENT:
        raise InadmissibleCellError(
            f"shortcut form requires a path-independent transport map; "
            f"space {panel.space_id!r} does not provide one"
        )
    means, points = ({}, {}) if _memo is None else _memo
    mask = _cohort_mask(panel, cell)
    treated = panel.group_label_array == cell.g
    base = cell.g - cell.delta - 1
    beta = _memo_mean(backend, panel, treated, base, means)
    end = _memo_mean(backend, panel, treated, cell.t, means)
    for period, mean in ((base, beta), (cell.t, end)):
        if (cell.g, period) not in points:
            points[cell.g, period] = backend.wrap(mean, **panel.fields)
    if not mask.any():
        raise EmptyCohortError(
            f"comparison cohort for cell (g={cell.g}, t={cell.t}) is empty "
            f"at period {base}",
            period=base,
        )
    # the shortcut is the recursion's walk in one step from base to t
    periods = (base, cell.t) if form == FORM_SHORTCUT else range(base, cell.t + 1)
    trend = [_memo_mean(backend, panel, mask, s, means) for s in periods]
    beta_path = [points[cell.g, base]]
    for prev, curr in zip(trend, trend[1:]):
        beta = backend.transport(prev, curr, beta)
        beta_path.append(backend.wrap(beta, **backend.unwrap(beta_path[-1:])[1]))
    return GroupTimeGatt(
        cell=GroupTimeCell(cell.g, cell.t, cell.delta, cell.comparison, form),
        effect=Geodesic(beta_path[-1], points[cell.g, cell.t]),
        magnitude=backend.distance(beta, end),
        beta_path=tuple(beta_path),
    )


def estimate_all_cells(panel, delta=0, comparison=COMPARISON_NEVER, estimator_form=None):
    """Estimate every admissible cell in `estimator_form`; returns a list of GroupTimeGatt.

    Each distinct (unit set, period) mean is computed once per call and
    shared by the cells that need it; nothing is kept between calls.
    """
    memo = ({}, {})
    return [
        estimate_group_time_gatt(
            panel, replace(cell, estimator_form=estimator_form), _memo=memo
        )
        for cell in enumerate_cells(panel, delta=delta, comparison=comparison)
    ]
