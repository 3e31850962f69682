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

from .did import walks
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
    return _admissible(cell, *_group_structure(panel), panel.n_periods - 1)


def _admissible(cell, groups, gbar, horizon):
    """`cell_admissible` on a panel of `_group_structure` (groups, gbar) and horizon T - 1."""
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
    # built first, so that delta and comparison are checked whatever the panel
    template = GroupTimeCell(g=0, t=0, delta=delta, comparison=comparison)
    groups, gbar = _group_structure(panel)
    cells = [
        replace(template, g=g, t=t)
        for g in groups
        for t in range(1, panel.n_periods - delta)
    ]
    return [cell for cell in cells if _admissible(cell, groups, gbar, panel.n_periods - 1)]


def _cohort_mask(panel, cell):
    labels = panel.group_label_array
    if cell.comparison == COMPARISON_NEVER:
        return np.isinf(labels)
    # first treated after t + delta; admissibility puts g at or before it
    return labels > cell.t + cell.delta


def _plan(panel, cell):
    """An admissible cell's form (its `estimator_form`, or if that is None the
    shortcut on path-independent spaces and else the recursion), its treated
    and comparison unit masks, and the periods of its walk."""
    backend = _BACKENDS[panel.space_id]
    form = cell.estimator_form
    if form is None:
        form = FORM_SHORTCUT if backend.PATH_INDEPENDENT else FORM_RECURSIVE
    if form == FORM_SHORTCUT and not backend.PATH_INDEPENDENT:
        raise InadmissibleCellError(
            f"shortcut form requires a path-independent transport map; "
            f"space {panel.space_id!r} does not provide one"
        )
    mask = _cohort_mask(panel, cell)
    base = cell.g - cell.delta - 1
    if not mask.any():
        raise EmptyCohortError(
            f"comparison cohort for cell (g={cell.g}, t={cell.t}) is empty "
            f"at period {base}",
            period=base,
        )
    # the shortcut is the recursion's walk in one step from base to t
    periods = (base, cell.t) if form == FORM_SHORTCUT else range(base, cell.t + 1)
    return form, panel.group_label_array == cell.g, mask, periods


def _estimate(panel, cells):
    """The GroupTimeGatt of each of `cells`, which are admissible: each cell
    planned once, every cell's walk from one `did.walks` call (each distinct
    (unit set, period) averaged once), every magnitude from one `distance`
    call, and a treated mean that several cells share wrapped once; nothing is
    kept between calls."""
    if not cells:
        return []
    backend = _BACKENDS[panel.space_id]
    plans = [_plan(panel, cell) for cell in cells]
    arrays = walks(panel, [plan[1:] for plan in plans])
    magnitudes = backend.distance(
        np.array([path[-1] for path, _, _ in arrays]), np.array([end for _, end, _ in arrays])
    ).tolist()
    points, results = {}, []
    for cell, (form, _, _, periods), (path, end, _), magnitude in zip(cells, plans, arrays, magnitudes):
        for period, mean in ((periods[0], path[0]), (cell.t, end)):
            if (cell.g, period) not in points:
                points[cell.g, period] = backend.wrap(mean, **panel.fields)
        beta_path = [points[cell.g, periods[0]]]
        # a transport keeps the fields of the point it moves (the Frobenius
        # kind, which a point that breaks it gives up); the other spaces have none
        fields = panel.fields
        for beta in path[1:]:
            if fields:
                fields = backend.unwrap(beta_path[-1:])[1]
            beta_path.append(backend.wrap(beta, **fields))
        effect = Geodesic(beta_path[-1], points[cell.g, cell.t])
        results.append(GroupTimeGatt(replace(cell, estimator_form=form), effect, magnitude, tuple(beta_path)))
    return results


def estimate_group_time_gatt(panel, cell):
    """Group-time effect for one admissible cell, in the cell's `estimator_form`
    (None: the shortcut on path-independent spaces, else the recursion)."""
    if not cell_admissible(panel, cell):
        raise InadmissibleCellError(
            f"cell (g={cell.g}, t={cell.t}, delta={cell.delta}, "
            f"{cell.comparison}) is not admissible for this panel"
        )
    return _estimate(panel, [cell])[0]


def estimate_all_cells(panel, delta=0, comparison=COMPARISON_NEVER, estimator_form=None):
    """Estimate every admissible cell in `estimator_form` (`_estimate`); returns a list of GroupTimeGatt."""
    # built first, so that the form is checked whatever the panel
    GroupTimeCell(g=0, t=0, estimator_form=estimator_form)
    cells = [
        replace(cell, estimator_form=estimator_form)
        for cell in enumerate_cells(panel, delta=delta, comparison=comparison)
    ]
    return _estimate(panel, cells)
