"""Space backends: Wasserstein, positive-orthant sphere, Frobenius matrices.

Each module defines `distance`, `interpolate`, `transport`, `validate`,
`stack_points`, `POINT`, `mean`, `from_data`, `to_data`, `to_jsonable`,
`manifest_fields`, `FORMATS` and `PATH_INDEPENDENT` (see the README's package
layout), and is registered in `geometry._BACKENDS`.
"""

import numpy as np

from ..errors import InvariantViolationError, SpaceMismatchError

# manifest format whose outcomes are written into the manifest itself
FORMAT_INLINE = "inline"


def check_points(bad, message):
    """Raise for the first point of a stack flagged in `bad` (count_nonzero tests it fastest)."""
    if np.count_nonzero(bad):
        raise InvariantViolationError(message, index=int(bad.argmax()))


def check_same_shape(*arrays):
    """Raise SpaceMismatchError unless the points' arrays all have one shape."""
    if len(shapes := {a.shape for a in arrays}) > 1:
        raise SpaceMismatchError(f"point shapes differ: {sorted(shapes)}")
