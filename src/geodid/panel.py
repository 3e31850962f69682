"""Panel data container shared by the canonical and staggered estimators."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantViolationError
from .geometry import _BACKENDS, backend_of

NEVER_TREATED = math.inf
# bytes of outcomes a panel validates per `validate` call: each check's
# temporaries are then a block's size, reused from the heap rather than
# faulted in afresh, and read while the block is still in cache
_VALIDATE_BLOCK_BYTES = 1 << 19


def label(index, n_periods, unit_ids):
    """`unit <id> period <t>`, naming row `index` of a panel's unit-major outcome stack."""
    i, t = divmod(index, n_periods)
    return f"unit {unit_ids[i]} period {t}"


def locate(exc, n_periods, unit_ids):
    """`exc`, raised on a panel's unit-major outcome stack, prefixed with its unit and period."""
    if exc.index is None:
        return exc
    return InvariantViolationError(f"{label(exc.index, n_periods, unit_ids)}: {exc}")


def _validate(validate, stack, fields):
    """`validate(stack, **fields)`, run on blocks of `_VALIDATE_BLOCK_BYTES`.

    When a block fails, the whole stack is validated once more, so the error
    is the one a single call raises: its first defect by check, then by row.
    """
    rows = max(1, _VALIDATE_BLOCK_BYTES // max(1, stack[0].nbytes))
    try:
        for start in range(0, len(stack), rows):
            validate(stack[start : start + rows], **fields)
    except InvariantViolationError:
        validate(stack, **fields)
        raise


@dataclass(frozen=True, init=False, eq=False)
class PanelDataset:
    """Outcomes of n units over T periods in one space, with treatment indicators.

    `data` has shape `(n_units, n_periods, *point_shape)` and `point(i, t)`
    is unit i's outcome at period t; `fields` are the keywords its space's
    point class takes beyond the array (the Frobenius `kind`), one value per
    panel. treatment[i, t] is the 0/1 indicator. Treatment must be staggered:
    nobody is treated at period 0 and treatment is never reversed.
    """

    data: np.ndarray
    treatment: np.ndarray
    space_id: str
    fields: dict
    unit_ids: tuple

    def __init__(self, outcomes, treatment, unit_ids=None):
        """Panel from points, outcomes[i][t] (Frobenius: of their common kind, else free)."""
        grid = np.array(outcomes, dtype=object)
        if grid.size == 0 or grid.ndim != 2:
            raise InvariantViolationError("outcomes must be a non-empty units x periods table")
        stack, fields = backend_of(*grid.flat).unwrap(grid.ravel())
        data = stack.reshape(grid.shape + stack.shape[1:])
        self._set(data, treatment, grid[0, 0].space_id, fields, unit_ids)

    @classmethod
    def from_array(cls, data, treatment, space_id, fields, unit_ids=None):
        """Panel from an outcome array, validated at once; a bad point names its unit and period."""
        panel = cls.__new__(cls)
        panel._set(data, treatment, space_id, fields, unit_ids)
        return panel

    def _set(self, data, treatment, space_id, fields, unit_ids):
        object.__setattr__(self, "unit_ids", None if unit_ids is None else tuple(unit_ids))
        treatment = np.asarray(treatment)
        # checked before the cast to int, which would truncate 0.5 to 0
        if not np.isin(treatment, (0, 1)).all():
            raise InvariantViolationError("treatment indicators must be 0 or 1")
        treatment = treatment.astype(int, copy=False)
        # a read-only view: the panel never writes, and its points share the memory
        data = np.asarray(data, dtype=float).view()
        if data.ndim < 2 or 0 in data.shape[:2]:
            raise InvariantViolationError("panel has no units or no periods")
        n, periods = data.shape[:2]
        if treatment.shape != (n, periods):
            raise InvariantViolationError(
                f"treatment shape {treatment.shape} does not match "
                f"{n} units x {periods} periods"
            )
        if self.unit_ids is not None and len(self.unit_ids) != n:
            raise InvariantViolationError("unit_ids length mismatch")
        if np.any(treatment[:, 0] != 0):
            bad = int(np.flatnonzero(treatment[:, 0])[0])
            raise InvariantViolationError(f"unit {self._name(bad)} is treated at period 0")
        reverses = np.any(np.diff(treatment, axis=1) < 0, axis=1)
        if reverses.any():
            bad = int(reverses.argmax())
            raise InvariantViolationError(f"unit {self._name(bad)} reverses treatment")
        if space_id not in _BACKENDS:
            raise InvariantViolationError(f"unknown space {space_id!r}")
        try:
            _validate(_BACKENDS[space_id].validate, data.reshape(n * periods, *data.shape[2:]), fields)
        except InvariantViolationError as exc:
            raise locate(exc, periods, self.unit_ids or range(n)) from None
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "treatment", treatment)
        object.__setattr__(self, "space_id", space_id)
        object.__setattr__(self, "fields", dict(fields))

    def _name(self, i):
        return self.unit_ids[i] if self.unit_ids is not None else i

    @property
    def n_units(self):
        return self.data.shape[0]

    @property
    def n_periods(self):
        return self.data.shape[1]

    def point(self, i, t):
        """Outcome of unit i at period t as a point of the panel's space."""
        return _BACKENDS[self.space_id].wrap(self.data[i, t], **self.fields)

    @cached_property
    def group_label_array(self):
        """First treated period per unit as a read-only float array (inf for never treated)."""
        labels = self.treatment.argmax(axis=1).astype(float)
        labels[~self.treatment.any(axis=1)] = NEVER_TREATED
        labels.flags.writeable = False
        return labels
