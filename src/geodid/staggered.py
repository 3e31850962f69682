"""Group-time treatment effects under staggered adoption.

Two comparison schemes are supported: the never-treated cohort and the
not-yet-treated cohort. The default estimator transports the treated group's
baseline mean forward one period at a time along the comparison cohort's
trend; spaces with a path-independent transport map admit a single-transport
shortcut that is used unless the cell asks for the recursive form.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyCohortError, InadmissibleCellError
from .frechet import group_means
from .geometry import Geodesic, distance, geodesic_difference, is_path_independent, transport
from .panel import NEVER_TREATED

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
    estimator_form: str


def _group_structure(panel):
    """Observed finite groups, and the latest-adopter marker g-bar."""
    labels = panel.group_labels
    finite = sorted({g for g in labels if g != NEVER_TREATED})
    if any(g == NEVER_TREATED for g in labels):
        gbar = math.inf
    else:
        gbar = max(finite)
    groups = [g for g in finite if g != gbar]
    return groups, gbar


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
    # not yet treated by t + delta, and not in group g
    untreated = panel.treatment[:, cell.t + cell.delta] == 0
    return untreated & (labels != cell.g)


def _memo_mean(panel, mask, period, memo):
    """Mean over the units in `mask` at `period`, computed once per memo."""
    key = (mask.tobytes(), period)
    if key not in memo:
        memo[key] = group_means(panel, period, mask).mean
    return memo[key]


def _cohort_mean(panel, mask, period, cell, memo):
    if not mask.any():
        raise EmptyCohortError(
            f"comparison cohort for cell (g={cell.g}, t={cell.t}) is empty "
            f"at period {period}",
            period=period,
        )
    return _memo_mean(panel, mask, period, memo)


def _treated_mean(panel, cell, period, memo):
    mask = panel.group_label_array == cell.g
    if not mask.any():
        raise EmptyCohortError(
            f"no units in group g={cell.g}", period=period
        )
    return _memo_mean(panel, mask, period, memo)


def estimate_group_time_gatt(panel, cell, *, _memo=None):
    """Group-time effect for one admissible cell, in the cell's `estimator_form`
    (None: the shortcut on path-independent spaces, else the recursion).

    `_memo` maps (unit selector bytes, period) to a group mean; it lets
    `estimate_all_cells` share means between the cells of one call.
    """
    if not cell_admissible(panel, cell):
        raise InadmissibleCellError(
            f"cell (g={cell.g}, t={cell.t}, delta={cell.delta}, "
            f"{cell.comparison}) is not admissible for this panel"
        )
    form = cell.estimator_form
    if form is None:
        form = (
            FORM_SHORTCUT
            if is_path_independent(panel.space_id)
            else FORM_RECURSIVE
        )
    if form == FORM_SHORTCUT and not is_path_independent(panel.space_id):
        raise InadmissibleCellError(
            f"shortcut form requires a path-independent transport map; "
            f"space {panel.space_id!r} does not provide one"
        )
    memo = {} if _memo is None else _memo
    mask = _cohort_mask(panel, cell)
    base = cell.g - cell.delta - 1
    treated_base = _treated_mean(panel, cell, base, memo)
    treated_end = _treated_mean(panel, cell, cell.t, memo)

    if form == FORM_SHORTCUT:
        comparison_trend = Geodesic(
            _cohort_mean(panel, mask, base, cell, memo),
            _cohort_mean(panel, mask, cell.t, cell, memo),
        )
        treated_trend = Geodesic(treated_base, treated_end)
        effect = geodesic_difference(comparison_trend, treated_trend)
        beta_path = (treated_base, effect.start)
    else:
        beta = treated_base
        beta_path = [beta]
        prev = _cohort_mean(panel, mask, base, cell, memo)
        for s in range(base + 1, cell.t + 1):
            curr = _cohort_mean(panel, mask, s, cell, memo)
            beta = transport(prev, curr, beta)
            beta_path.append(beta)
            prev = curr
        effect = Geodesic(beta, treated_end)
        beta_path = tuple(beta_path)

    return GroupTimeGatt(
        cell=GroupTimeCell(cell.g, cell.t, cell.delta, cell.comparison, form),
        effect=effect,
        magnitude=distance(effect.start, effect.end),
        beta_path=beta_path,
        estimator_form=form,
    )


def estimate_all_cells(panel, delta=0, comparison=COMPARISON_NEVER, estimator_form=None):
    """Estimate every admissible cell in `estimator_form`; returns a list of GroupTimeGatt.

    Each distinct (unit set, period) mean is computed once per call and
    shared by the cells that need it; nothing is kept between calls.
    """
    memo = {}
    return [
        estimate_group_time_gatt(
            panel, replace(cell, estimator_form=estimator_form), _memo=memo
        )
        for cell in enumerate_cells(panel, delta=delta, comparison=comparison)
    ]
