"""Panel data container shared by the canonical and staggered estimators."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolationError, SpaceMismatchError

NEVER_TREATED = math.inf


@dataclass(frozen=True)
class PanelDataset:
    """Per-unit outcome sequences with per-period treatment indicators.

    outcomes[i][t] is the outcome of unit i at period t; treatment[i, t] is
    the 0/1 indicator. Treatment must be staggered: nobody is treated at
    period 0 and treatment is never reversed.
    """

    outcomes: tuple
    treatment: np.ndarray
    unit_ids: tuple = field(default=None)

    def __post_init__(self):
        outcomes = tuple(tuple(row) for row in self.outcomes)
        treatment = np.asarray(self.treatment)
        # checked before the cast to int, which would truncate 0.5 to 0
        if not np.isin(treatment, (0, 1)).all():
            raise InvariantViolationError("treatment indicators must be 0 or 1")
        treatment = treatment.astype(int, copy=False)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "treatment", treatment)
        n = len(outcomes)
        if n == 0:
            raise InvariantViolationError("panel has no units")
        periods = len(outcomes[0])
        if treatment.shape != (n, periods):
            raise InvariantViolationError(
                f"treatment shape {treatment.shape} does not match "
                f"{n} units x {periods} periods"
            )
        if np.any(treatment[:, 0] != 0):
            bad = int(np.flatnonzero(treatment[:, 0])[0])
            raise InvariantViolationError(
                f"unit {self._name(bad)} is treated at period 0"
            )
        if np.any(np.diff(treatment, axis=1) < 0):
            bad = int(np.flatnonzero(np.any(np.diff(treatment, axis=1) < 0, axis=1))[0])
            raise InvariantViolationError(
                f"unit {self._name(bad)} reverses treatment"
            )
        space = outcomes[0][0].space_id
        for i, row in enumerate(outcomes):
            if len(row) != periods:
                raise InvariantViolationError(
                    f"unit {self._name(i)} has {len(row)} outcomes, expected {periods}"
                )
            for t, point in enumerate(row):
                if point.space_id != space:
                    raise SpaceMismatchError(
                        f"unit {self._name(i)} period {t}: outcome in space "
                        f"{point.space_id}, expected {space}"
                    )
        if self.unit_ids is not None:
            object.__setattr__(self, "unit_ids", tuple(self.unit_ids))
            if len(self.unit_ids) != n:
                raise InvariantViolationError("unit_ids length mismatch")

    def _name(self, i):
        return self.unit_ids[i] if self.unit_ids is not None else i

    @property
    def n_units(self):
        return len(self.outcomes)

    @property
    def n_periods(self):
        return len(self.outcomes[0])

    @property
    def space_id(self):
        return self.outcomes[0][0].space_id

    @property
    def group_labels(self):
        """First treated period per unit, or inf for never-treated units."""
        labels = []
        for row in self.treatment:
            treated = np.flatnonzero(row)
            labels.append(int(treated[0]) if len(treated) else NEVER_TREATED)
        return tuple(labels)

    def ever_treated(self):
        return self.treatment[:, -1] == 1

    def subset_periods(self, periods, treatment=None):
        """New panel restricted to the given periods (in order).

        `treatment` overrides the indicator matrix, e.g. to recast a pre-period
        pair as a synthetic two-period design.
        """
        outcomes = tuple(tuple(row[t] for t in periods) for row in self.outcomes)
        if treatment is None:
            treatment = self.treatment[:, list(periods)]
        return PanelDataset(outcomes, treatment, unit_ids=self.unit_ids)
