"""Exception and warning types shared across the package."""


class GeodidError(Exception):
    """Base class for all library errors."""


class SpaceMismatchError(GeodidError):
    """Operands live in different spaces or have incompatible shapes."""


class DegenerateTransportError(GeodidError):
    """Transport map is undefined (e.g. constant quantile curve)."""


class DegenerateTangentError(GeodidError):
    """Tangent projection vanished while the rotation angle is nonzero."""


class NonConvergenceError(GeodidError):
    """Iterative Frechet mean failed to converge."""

    def __init__(self, message, iterations=None, last_step=None):
        super().__init__(message)
        self.iterations = iterations
        self.last_step = last_step


class EmptyGroupError(GeodidError):
    """A treatment/control group required for estimation is empty."""


class EmptyCohortError(GeodidError):
    """Comparison cohort is empty at a specific period."""

    def __init__(self, message, period=None):
        super().__init__(message)
        self.period = period


class InadmissibleCellError(GeodidError):
    """The requested (g, t) cell violates the admissibility conditions."""


class ParseError(GeodidError):
    """Malformed manifest or data file."""


class InvariantViolationError(GeodidError):
    """Loaded data violates a space or panel invariant; `index` locates a bad point in a stack."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class MissingOutcomeError(GeodidError):
    """A unit lacks an outcome for some period."""


class OrthantExitWarning(UserWarning):
    """Sphere transport produced a point outside the positive orthant."""


class KindViolationWarning(UserWarning):
    """Matrix transport output violates its declared kind invariant."""
