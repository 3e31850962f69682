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

from .did import effects
from .errors import EmptyCohortError, InadmissibleCellError
from .geometry import _BACKENDS, Geodesic

COMPARISON_NEVER = "never"
COMPARISON_NOT_YET = "notyet"
FORM_RECURSIVE = "recursive"
FORM_SHORTCUT = "shortcut"


def _check_scheme(delta, comparison, estimator_form=None):
    """Raise ValueError for an unknown comparison, then form, then a negative delta."""
    if comparison not in (COMPARISON_NEVER, COMPARISON_NOT_YET):
        raise ValueError(f"unknown comparison scheme {comparison!r}")
    if estimator_form not in (None, FORM_RECURSIVE, FORM_SHORTCUT):
        raise ValueError(f"unknown estimator form {estimator_form!r}")
    if delta < 0:
        raise ValueError("anticipation horizon must be >= 0")


@dataclass(frozen=True)
class GroupTimeCell:
    g: int
    t: int
    delta: int = 0
    comparison: str = COMPARISON_NEVER
    estimator_form: str = None

    def __post_init__(self):
        _check_scheme(self.delta, self.comparison, self.estimator_form)


@dataclass(frozen=True)
class GroupTimeGatt:
    cell: GroupTimeCell
    effect: Geodesic
    magnitude: float
    beta_path: tuple

    @property
    def estimator_form(self):
        return self.cell.estimator_form


def _pairs(panel, delta, comparison):
    """The (g, t) of every admissible cell, by g and then t. g is an observed
    cohort with g > delta, other than g-bar, the latest adopters, when no unit
    is never treated (they are the comparison pool). t runs from g - delta (the
    effect is zero by construction before it) to T - 1 - delta, and under the
    not-yet-treated comparison stays below g-bar - delta."""
    labels = panel.group_label_array
    cohorts = [int(g) for g in np.unique(labels[np.isfinite(labels)])]
    gbar = math.inf if np.isinf(labels).any() else cohorts.pop()
    last = panel.n_periods - 1 - delta
    if comparison == COMPARISON_NOT_YET:
        last = min(last, gbar - delta - 1)
    return [(g, t) for g in cohorts if g > delta for t in range(g - delta, last + 1)]


def cell_admissible(panel, cell):
    """Check the side conditions for identification of the (g, t) cell."""
    return (cell.g, cell.t) in _pairs(panel, cell.delta, cell.comparison)


def enumerate_cells(panel, delta=0, comparison=COMPARISON_NEVER):
    """All admissible (g, t) cells for the given anticipation horizon."""
    # checked first, so that a bad value raises whatever the panel
    _check_scheme(delta, comparison)
    return [GroupTimeCell(g, t, delta, comparison) for g, t in _pairs(panel, delta, comparison)]


def _cohort_mask(panel, cell):
    labels = panel.group_label_array
    if cell.comparison == COMPARISON_NEVER:
        return np.isinf(labels)
    # first treated after t + delta; admissibility puts g at or before it
    return labels > cell.t + cell.delta


def _form(panel, estimator_form):
    """`estimator_form`, or if it is None the shortcut on path-independent spaces and else the recursion."""
    independent = _BACKENDS[panel.space_id].PATH_INDEPENDENT
    if estimator_form is None:
        return FORM_SHORTCUT if independent else FORM_RECURSIVE
    if estimator_form == FORM_SHORTCUT and not independent:
        raise InadmissibleCellError(
            f"shortcut form requires a path-independent transport map; "
            f"space {panel.space_id!r} does not provide one"
        )
    return estimator_form


def _plan(panel, cell):
    """An admissible cell's treated and comparison unit masks and the periods
    of its walk in its `estimator_form`, which `_form` has resolved."""
    mask = _cohort_mask(panel, cell)
    base = cell.g - cell.delta - 1
    if not mask.any():
        raise EmptyCohortError(
            f"comparison cohort for cell (g={cell.g}, t={cell.t}) is empty "
            f"at period {base}",
            period=base,
        )
    # the shortcut is the recursion's walk in one step from base to t
    periods = (base, cell.t) if cell.estimator_form == FORM_SHORTCUT else range(base, cell.t + 1)
    return panel.group_label_array == cell.g, mask, periods


def _estimate(panel, cells):
    """The GroupTimeGatt of each of `cells`, which are admissible and have a
    resolved form: each cell planned once, and every cell's estimate from one
    `did.effects` call (each distinct (unit set, period) averaged once, and a
    treated mean that several cells share wrapped once); nothing is kept
    between calls."""
    estimates = effects(panel, [_plan(panel, cell) for cell in cells])
    return [
        GroupTimeGatt(cell, effect, magnitude, path)
        for cell, (effect, magnitude, path, _) in zip(cells, estimates)
    ]


def estimate_group_time_gatt(panel, cell):
    """Group-time effect for one admissible cell, in the cell's `estimator_form`
    (None: the shortcut on path-independent spaces, else the recursion)."""
    if not cell_admissible(panel, cell):
        raise InadmissibleCellError(
            f"cell (g={cell.g}, t={cell.t}, delta={cell.delta}, "
            f"{cell.comparison}) is not admissible for this panel"
        )
    return _estimate(panel, [replace(cell, estimator_form=_form(panel, cell.estimator_form))])[0]


def estimate_all_cells(panel, delta=0, comparison=COMPARISON_NEVER, estimator_form=None):
    """Estimate every admissible cell in `estimator_form` (`_estimate`); returns a list of GroupTimeGatt."""
    # checked first, so that a bad value raises whatever the panel
    _check_scheme(delta, comparison, estimator_form)
    pairs = _pairs(panel, delta, comparison)
    if not pairs:
        return []
    form = _form(panel, estimator_form)
    return _estimate(panel, [GroupTimeCell(g, t, delta, comparison, form) for g, t in pairs])
