"""Geodesic algebra shared by all space backends.

Geodesics are stored as endpoint pairs and evaluated on demand; every backend
has closed-form interpolation. Differences between geodesics and the quotient
metric are built on top of the per-space transport maps, and `frechet_mean`
averages points with the backend's `means` of their one stack: a closed form
on the Wasserstein and Frobenius spaces, a Karcher iteration on the sphere.
`_BACKENDS` is the one table that maps a space id to its backend module.
"""

from dataclasses import dataclass

from .errors import EmptyGroupError, SpaceMismatchError
from .spaces import matrix as _matrix
from .spaces import sphere as _sphere
from .spaces import wasserstein as _wasserstein

POINT_TOL = 1e-10

_BACKENDS = {
    "wasserstein": _wasserstein,
    "sphere": _sphere,
    "frobenius": _matrix,
}


def backend_of(*points):
    space = points[0].space_id
    for p in points[1:]:
        if p.space_id != space:
            raise SpaceMismatchError(
                f"space mismatch: {space} vs {p.space_id}"
            )
    return _BACKENDS[space]


def distance(a, b):
    """Native metric of the points' common space."""
    backend = backend_of(a, b)
    stack, _ = backend.unwrap((a, b))
    return float(backend.distance(stack[:1], stack[1:])[0])


def transport(alpha, beta, omega):
    """Geodesic transport of omega along the geodesic from alpha to beta (a point with omega's fields)."""
    backend = backend_of(alpha, beta, omega)
    stack, _ = backend.unwrap((alpha, beta, omega))
    moved = backend.transport(stack[:1], stack[1:2], stack[2:])[0]
    return backend.wrap(moved, **backend.unwrap((omega,))[1])


@dataclass(frozen=True)
class FrechetResult:
    mean: object
    iterations: int


def frechet_mean(points):
    """Frechet mean of points that all live in one space."""
    points = list(points)
    if not points:
        raise EmptyGroupError("cannot average an empty set of points")
    backend = backend_of(*points)
    stack, fields = backend.unwrap(points)
    mean, iterations = backend.means([stack])[0]
    return FrechetResult(backend.wrap(mean, **fields), iterations)


@dataclass(frozen=True)
class Geodesic:
    """Constant-speed geodesic between two points of one space."""

    start: object
    end: object

    def __post_init__(self):
        backend_of(self.start, self.end)

    def length(self):
        return distance(self.start, self.end)

    def evaluate(self, t):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"geodesic parameter t={t} outside [0, 1]")
        backend = backend_of(self.start, self.end)
        (a, b), _ = backend.unwrap((self.start, self.end))
        return backend.wrap(backend.interpolate(a, b, t), **backend.unwrap((self.start,))[1])

    def __call__(self, t):
        return self.evaluate(t)


def reverse(g):
    return Geodesic(g.end, g.start)


def concatenate(g1, g2):
    """Concatenation of geodesics sharing the middle point: gamma_{a,z} then gamma_{z,b}."""
    if distance(g1.end, g2.start) > POINT_TOL:
        raise SpaceMismatchError("concatenation requires g1.end == g2.start")
    return Geodesic(g1.start, g2.end)


def geodesic_difference(subtrahend, minuend):
    """Difference of geodesics: transport the subtrahend to the minuend's start.

    Returns the geodesic from Gamma_{sub.start, sub.end}(minuend.start) to
    minuend.end.
    """
    moved = transport(subtrahend.start, subtrahend.end, minuend.start)
    return Geodesic(moved, minuend.end)


def quotient_distance(g1, g2, reference):
    """Metric on equivalence classes of geodesics, anchored at a fixed reference point."""
    z1 = transport(g1.start, g1.end, reference)
    z2 = transport(g2.start, g2.end, reference)
    return distance(z1, z2)
