"""Space backends: Wasserstein, positive-orthant sphere, Frobenius matrices.

Each module defines `distance`, `interpolate`, `transport` and `means` (the
Frechet mean and iteration count of each stack of an iterable: batched
Karcher iterations on the sphere, `closed_form_means` of the module's
`_mean` on the other two) on arrays, `wrap` and `unwrap` between arrays and
points, `validate`, `from_data`, `to_data`, `to_jsonable`, `manifest_fields`,
`FORMATS` and `PATH_INDEPENDENT` (see the README's package layout), and is
registered in `geometry._BACKENDS`.
"""

import numpy as np

from ..errors import GeodidError, InvariantViolationError, SpaceMismatchError

# manifest format whose outcomes are written into the manifest itself
FORMAT_INLINE = "inline"


def check_points(bad, message):
    """Raise for the first point of a stack flagged in `bad` (count_nonzero tests it fastest)."""
    if np.count_nonzero(bad):
        raise InvariantViolationError(message, index=int(bad.argmax()))


def stack_arrays(arrays):
    """A list of arrays as one (k, *shape) array; SpaceMismatchError unless they share one shape."""
    if len(shapes := {a.shape for a in arrays}) > 1:
        raise SpaceMismatchError(f"point shapes differ: {sorted(shapes)}")
    return np.array(arrays)


def stack_outcomes(arrays):
    """A manifest's outcomes as one (k, *shape) array; InvariantViolationError
    at the first outcome whose shape differs from the first one's."""
    shape = arrays[0].shape
    for i, a in enumerate(arrays):
        if a.shape != shape:
            raise InvariantViolationError(
                f"outcome shape {a.shape} differs from the first outcome's {shape}", index=i
            )
    return np.array(arrays)


def stack_flat(outcomes):
    """A manifest's flat outcomes as one (k, d) array: the outcome reader's
    (k, d) array of them as it is, or a list of arrays, each flattened,
    stacked by `stack_outcomes`."""
    if isinstance(outcomes, np.ndarray):
        return outcomes
    return stack_outcomes([x.ravel() for x in outcomes])


def closed_form_means(mean):
    """The `means` of a backend whose Frechet mean of a stack is `mean(stack)`: `mean` mapped over
    the stacks, which drops each before the next is gathered (a loop variable would hold it)."""
    return lambda stacks: list(map(mean, stacks))


def bare(cls, **attrs):
    """A point of `cls` holding `attrs`, not validated: for arrays whose arithmetic and checks cover `validate`."""
    point = object.__new__(cls)
    point.__dict__.update(attrs)
    return point


def check_overflow(values, what):
    """Raise GeodidError (an estimation failure) when arithmetic on valid points left `values` non-finite.

    That arithmetic runs under np.errstate(over="ignore", invalid="ignore"):
    this error is the one report of the overflow, not a numpy warning.
    """
    if not np.isfinite(values).all():
        raise GeodidError(f"{what} of finite points overflows the float range")
