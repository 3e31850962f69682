import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodid.errors import (
    DegenerateTangentError,
    InvariantViolationError,
    NonConvergenceError,
    OrthantExitWarning,
    SpaceMismatchError,
)
from geodid.geometry import distance, transport
from geodid.spaces import sphere
from geodid.spaces.sphere import (
    UnitCompositionPoint,
    embed_composition,
    exp_map,
    log_map,
    unembed,
)

from conftest import random_composition

E1 = UnitCompositionPoint([1.0, 0.0, 0.0])
E2 = UnitCompositionPoint([0.0, 1.0, 0.0])
DIAG = UnitCompositionPoint([1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])


def test_point_requires_unit_norm():
    with pytest.raises(InvariantViolationError):
        UnitCompositionPoint([1.0, 1.0, 0.0])


def test_point_rejects_nan_coordinates():
    # a NaN norm compares false against the tolerance, and once passed for unit norm
    with pytest.raises(InvariantViolationError, match="unit norm"):
        UnitCompositionPoint([np.nan, 1.0, 0.0])
    with pytest.raises(InvariantViolationError, match="unit norm"):
        embed_composition([np.nan, 0.5, 0.5])


def test_point_rejects_negative_coordinate():
    with pytest.raises(InvariantViolationError):
        UnitCompositionPoint([np.sqrt(0.5), -np.sqrt(0.5), 0.0])


def test_distance_examples():
    assert distance(E1, E1) == 0.0
    assert distance(E1, E2) == pytest.approx(np.pi / 2)
    assert distance(E1, DIAG) == pytest.approx(np.pi / 4)


def test_distance_dimension_mismatch():
    with pytest.raises(SpaceMismatchError):
        distance(E1, UnitCompositionPoint([1.0, 0.0]))


def test_transport_alpha_equals_beta():
    out = transport(E1, E1, DIAG)
    np.testing.assert_array_equal(out.coords, DIAG.coords)


def test_transport_endpoint_property():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = random_composition(rng), random_composition(rng)
        out = transport(a, b, a)
        assert distance(out, b) < 1e-10


@pytest.mark.filterwarnings("ignore::geodid.errors.OrthantExitWarning")
def test_transport_moves_by_geodesic_length():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, w = random_composition(rng), random_composition(rng), random_composition(rng)
        out = transport(a, b, w)
        assert abs(np.linalg.norm(out.coords) - 1.0) < 1e-10
        assert distance(w, out) == pytest.approx(distance(a, b), abs=1e-8)


def test_transport_against_independent_construction():
    # move omega by theta along the direction obtained from an independent
    # projector-based Gram-Schmidt step
    alpha, beta = E1, DIAG
    omega = UnitCompositionPoint([1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])
    out = transport(alpha, beta, omega)
    theta = np.arccos(alpha.coords @ beta.coords)
    v_ab = beta.coords - (alpha.coords @ beta.coords) * alpha.coords
    proj = np.eye(3) - np.outer(omega.coords, omega.coords)
    u = proj @ v_ab
    u /= np.linalg.norm(u)
    expected = np.cos(theta) * omega.coords + np.sin(theta) * u
    np.testing.assert_allclose(out.coords, expected, atol=1e-12)
    assert distance(omega, out) == pytest.approx(np.pi / 4, abs=1e-12)
    # result stays in span{omega, alpha, beta}
    basis = np.linalg.svd(
        np.vstack([omega.coords, alpha.coords, beta.coords])
    )[2][:3]
    residual = out.coords - basis.T @ (basis @ out.coords)
    assert np.linalg.norm(residual) < 1e-12


def test_transport_degenerate_tangent():
    # tangent projection vanishes when the motion direction is parallel to omega
    with pytest.raises(DegenerateTangentError):
        transport(E1, E2, E2)


def test_transport_orthant_exit_warns_but_returns():
    near_edge = embed_composition([0.98, 0.02, 0.0])
    with pytest.warns(OrthantExitWarning):
        out = transport(DIAG, E1, near_edge)
    assert abs(np.linalg.norm(out.coords) - 1.0) < 1e-10


def test_embed_composition_examples():
    np.testing.assert_array_equal(
        embed_composition([1.0, 0.0, 0.0]).coords, [1.0, 0.0, 0.0]
    )
    np.testing.assert_allclose(
        embed_composition([0.25, 0.25, 0.5]).coords,
        [0.5, 0.5, 1 / np.sqrt(2)],
    )
    d = 4
    np.testing.assert_allclose(
        embed_composition([1 / d] * d).coords, [1 / np.sqrt(d)] * d
    )


def test_embed_rejects_negative_and_bad_sum():
    with pytest.raises(InvariantViolationError):
        embed_composition([0.7, 0.4, -0.1])
    with pytest.raises(InvariantViolationError):
        embed_composition([0.5, 0.4])


def test_unembed_round_trip():
    for shares in ([1.0, 0.0, 0.0], [0.25, 0.25, 0.5], [0.2, 0.3, 0.5]):
        point = embed_composition(shares)
        np.testing.assert_allclose(unembed(point), shares, atol=1e-12)


def test_exp_log_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(50):
        base, target = random_composition(rng), random_composition(rng)
        v = log_map(base.coords, target.coords)
        assert np.linalg.norm(v) == pytest.approx(distance(base, target), abs=1e-10)
        back = exp_map(base.coords, v)
        assert sphere.distance(back, target.coords) < 1e-10


def loop_mean(points):
    """The point-by-point Karcher loop that `sphere.means` batched, kept as its oracle."""
    coords = np.array([p.coords for p in points])
    w = np.ones(len(points)) / len(points)
    extrinsic = w @ coords
    if np.linalg.norm(extrinsic) < 1e-8:
        # near-degenerate configuration; start from the first point instead
        current = coords[0]
    else:
        current = sphere._finish(extrinsic)
    for iteration in range(1, sphere.MEAN_MAX_ITER + 1):
        tangent = np.zeros(len(current))
        for x, wi in zip(coords, w):
            tangent += wi * log_map(current, x)
        step = float(np.linalg.norm(tangent))
        current = exp_map(current, tangent)
        if step < sphere.MEAN_TOL:
            return current, iteration
    raise NonConvergenceError(
        f"sphere mean did not converge in {sphere.MEAN_MAX_ITER} iterations "
        f"(last step {step:.3e})",
        iterations=sphere.MEAN_MAX_ITER,
        last_step=step,
    )


def assert_mean_matches_loop(points):
    batched, batched_iters = sphere.means([np.array([p.coords for p in points])])[0]
    looped, looped_iters = loop_mean(points)
    np.testing.assert_allclose(batched, looped, rtol=0, atol=1e-12)
    assert batched_iters == looped_iters


@pytest.mark.parametrize("dim", [2, 3, 5, 50])
def test_mean_matches_loop_on_random_points(dim):
    rng = np.random.default_rng(100 + dim)
    for n in (1, 2, 7, 40):
        points = [random_composition(rng, dim=dim) for _ in range(n)]
        assert_mean_matches_loop(points)


def test_mean_matches_loop_on_orthant_boundary():
    # compositions with zero shares, vertices included
    rng = np.random.default_rng(7)
    for dim in (3, 5):
        for n in (2, 6, 25):
            points = []
            for _ in range(n):
                shares = rng.dirichlet(np.ones(dim))
                shares[rng.random(dim) < 0.5] = 0.0
                if shares.sum() == 0.0:
                    shares[rng.integers(dim)] = 1.0
                points.append(embed_composition(shares / shares.sum()))
            points.append(embed_composition(np.eye(dim)[0]))
            assert_mean_matches_loop(points)


def test_mean_matches_loop_on_spread_near_vertices():
    # every point sits near a vertex, so pairs are almost pi/2 apart
    rng = np.random.default_rng(8)
    for dim in (2, 3, 5):
        for eps in (1e-2, 1e-4, 1e-8):
            points = []
            for k in range(2 * dim):
                shares = np.full(dim, eps / (dim - 1)) * rng.uniform(0.5, 1.5, dim)
                shares[k % dim] = 0.0
                shares[k % dim] = 1.0 - shares.sum()
                points.append(embed_composition(shares))
            assert_mean_matches_loop(points)


def test_mean_matches_loop_when_a_point_is_the_start():
    # p + q is parallel to c, and every sum below is exact in binary, so the
    # extrinsic start is c itself and c's log map takes the theta < 1e-14 branch
    c = UnitCompositionPoint(np.full(4, 0.5))
    direction = np.array([0.6, 0.4, 0.55, 0.45])
    p = np.round(direction / np.linalg.norm(direction) * 2.0**40) / 2.0**40
    q = p.sum() / 2 - p
    points = [c, c, UnitCompositionPoint(p), UnitCompositionPoint(q)]
    stack = np.array([x.coords for x in points])
    start = sphere._finish(np.full(4, 0.25) @ stack)
    np.testing.assert_array_equal(start, c.coords)
    assert np.arccos(min(c.coords @ start, 1.0)) < 1e-14
    assert_mean_matches_loop(points)
    mean, _ = sphere.means([stack])[0]
    assert sphere.distance(mean, c.coords) < 1e-12


def test_mean_raises_when_iterations_run_out(monkeypatch):
    rng = np.random.default_rng(9)
    points = [random_composition(rng, dim=4) for _ in range(10)]
    monkeypatch.setattr(sphere, "MEAN_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError) as info:
        sphere.means([np.array([p.coords for p in points])])
    assert info.value.iterations == 1
    assert info.value.last_step > sphere.MEAN_TOL


@pytest.mark.parametrize("dim", [2, 3, 5, 10])
def test_angle_agrees_with_arccos_on_separated_points(dim):
    # the chord form and arccos of the dot product agree where arccos is well conditioned
    rng = np.random.default_rng(20 + dim)
    x = np.sqrt(rng.dirichlet(np.ones(dim), 500))
    y = np.sqrt(rng.dirichlet(np.ones(dim), 500))
    arccos = np.arccos(np.einsum("ij,ij->i", x, y))
    separated = arccos > 0.5
    assert separated.sum() > 100
    np.testing.assert_allclose(sphere._angle(x, y)[separated], arccos[separated], rtol=0, atol=1e-15)


def test_log_map_of_a_stack_is_each_row_log_map():
    rng = np.random.default_rng(21)
    base = random_composition(rng, dim=5).coords
    stack = np.array([random_composition(rng, dim=5).coords for _ in range(6)] + [base])
    logs = log_map(base, stack)
    assert logs.shape == stack.shape
    for row, log in zip(stack, logs):
        np.testing.assert_allclose(log, log_map(base, row), rtol=0, atol=1e-15)
    # a row equal to the base gives exactly 0, without a 0/0
    np.testing.assert_array_equal(logs[-1], np.zeros(5))


@pytest.mark.parametrize("copies", [1, 2, 3, 7])
def test_mean_of_copies_of_one_point_is_that_point(copies):
    # every copy's angle to the start must read 0, which arccos(x'mu) misses
    # by about 1.5e-8, enough to keep the unit step above MEAN_TOL
    rng = np.random.default_rng(copies)
    points = [embed_composition([0.57, 0.05, 0.38]), embed_composition([0.54, 0.3, 0.01, 0.05, 0.1])]
    points += [random_composition(rng, dim=dim) for dim in (3, 4, 5, 10, 50) for _ in range(40)]
    for point in points:
        mean, iterations = sphere.means([np.tile(point.coords, (copies, 1))])[0]
        assert iterations == 1
        np.testing.assert_allclose(mean, point.coords, rtol=0, atol=1e-14)


# --- the batched Karcher kernel, `sphere.means`

# Written down before the kernel's first run: each mean within KERNEL_TOL per
# coordinate of the per-stack loop below, with the same iteration count. The
# two add the same log maps in other orders (`w @ logs` against a reduceat sum
# divided by k), which moves an iterate by a few ulps, and each unit step
# contracts such a difference rather than growing it.
KERNEL_TOL = 1e-12


def stack_mean(coords):
    """The per-stack Karcher loop that `sphere.means` replaced, kept as its oracle:
    one stack, every point's log map in one call, averaged by `w @`."""
    w = np.full(len(coords), 1.0 / len(coords))
    extrinsic = w @ coords
    if np.linalg.norm(extrinsic) < 1e-8:
        # near-degenerate configuration; start from the first point instead
        current = coords[0]
    else:
        current = sphere._finish(extrinsic)
    for iteration in range(1, sphere.MEAN_MAX_ITER + 1):
        tangent = w @ log_map(current, coords)
        step = float(np.linalg.norm(tangent))
        current = exp_map(current, tangent)
        if step < sphere.MEAN_TOL:
            return current, iteration
    raise NonConvergenceError(
        f"sphere mean did not converge in {sphere.MEAN_MAX_ITER} iterations "
        f"(last step {step:.3e})",
        iterations=sphere.MEAN_MAX_ITER,
        last_step=step,
    )


def sphere_stack(rng, kind, dim, size):
    """A (k, d) stack of unit vectors on the orthant, of one of `STACK_KINDS`."""
    if kind == "one point":
        return np.sqrt(rng.dirichlet(np.ones(dim)))[None]
    if kind == "copies":
        return np.tile(np.sqrt(rng.dirichlet(np.ones(dim))), (size, 1))
    if kind == "tight":
        return np.sqrt(rng.dirichlet(np.full(dim, 200.0), size))
    shares = rng.dirichlet(np.ones(dim), size)
    if kind == "boundary":
        # zero shares, whole vertices among them
        shares[rng.random(shares.shape) < 0.5] = 0.0
        empty = shares.sum(axis=1) == 0.0
        shares[empty, rng.integers(dim, size=empty.sum())] = 1.0
        shares /= shares.sum(axis=1, keepdims=True)
    return np.sqrt(shares)


STACK_KINDS = ("spread", "tight", "boundary", "one point", "copies")


@st.composite
def stack_lists(draw):
    """1-6 stacks of one dimension, each of 1-40 points of a kind in `STACK_KINDS`."""
    dim = draw(st.sampled_from([2, 3, 5, 9, 50]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(STACK_KINDS), min_size=1, max_size=6))
    return [sphere_stack(rng, kind, dim, draw(st.integers(1, 40))) for kind in kinds]


def bits(result):
    mean, iterations = result
    return mean.tobytes(), iterations


@settings(max_examples=200, deadline=None, database=None)
@given(stacks=stack_lists(), data=st.data())
def test_kernel_mean_has_the_same_bits_alone_and_in_any_batch(stacks, data):
    alone = [bits(sphere.means([stack])[0]) for stack in stacks]
    assert [bits(result) for result in sphere.means(stacks)] == alone
    order = data.draw(st.permutations(range(len(stacks))))
    shuffled = sphere.means([stacks[i] for i in order])
    assert [bits(result) for result in shuffled] == [alone[i] for i in order]
    # a stack next to copies of itself, one of which converges with it
    doubled = sphere.means(stacks + stacks)
    assert [bits(result) for result in doubled] == alone + alone


@settings(max_examples=200, deadline=None, database=None)
@given(stacks=stack_lists())
def test_kernel_matches_the_per_stack_loop(stacks):
    for (mean, iterations), stack in zip(sphere.means(stacks), stacks):
        expected, expected_iterations = stack_mean(stack)
        np.testing.assert_allclose(mean, expected, rtol=0, atol=KERNEL_TOL)
        assert iterations == expected_iterations


@pytest.mark.parametrize("batch_rows", [1, 7, 40, 10**9])
def test_kernel_batches_of_any_size_give_the_same_bits(monkeypatch, batch_rows):
    rng = np.random.default_rng(60)
    stacks = [sphere_stack(rng, kind, 5, size) for kind in STACK_KINDS for size in (1, 9, 60)]
    alone = [bits(sphere.means([stack])[0]) for stack in stacks]
    monkeypatch.setattr(sphere, "BATCH_ROWS", batch_rows)
    # a generator, as `did.take_means` passes them
    assert [bits(result) for result in sphere.means(stack for stack in stacks)] == alone
    # a one-point stack converges in one step, and the next stack is the first one stuck
    monkeypatch.setattr(sphere, "MEAN_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError) as first:
        sphere.means([stacks[1]])
    with pytest.raises(NonConvergenceError) as batched:
        sphere.means(iter(stacks))
    assert batched.value.last_step == first.value.last_step


def test_kernel_converges_on_one_point_and_copies_in_a_batch():
    rng = np.random.default_rng(61)
    for dim in (2, 3, 5, 50):
        stacks = [sphere_stack(rng, kind, dim, 7) for kind in ("one point", "copies", "spread")]
        (one, one_iterations), (copy, copy_iterations), _ = sphere.means(stacks)
        assert one_iterations == copy_iterations == 1
        np.testing.assert_allclose(one, stacks[0][0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(copy, stacks[1][0], rtol=0, atol=1e-14)


def test_kernel_names_the_first_stack_stuck_at_the_cap(monkeypatch):
    rng = np.random.default_rng(62)
    slow = [sphere_stack(rng, "spread", 4, 10) for _ in range(2)]
    quick = sphere_stack(rng, "copies", 4, 3)
    monkeypatch.setattr(sphere, "MEAN_MAX_ITER", 1)
    for first, second in (slow, slow[::-1]):
        with pytest.raises(NonConvergenceError) as alone:
            sphere.means([first])
        with pytest.raises(NonConvergenceError) as batched:
            sphere.means([quick, first, quick, second])
        # the message and attributes a lone per-stack loop gives
        with pytest.raises(NonConvergenceError) as looped:
            stack_mean(first)
        assert str(batched.value) == str(alone.value)
        assert batched.value.iterations == alone.value.iterations == 1
        assert batched.value.last_step == alone.value.last_step > sphere.MEAN_TOL
        assert str(looped.value).startswith("sphere mean did not converge in 1 iterations (last step ")
        assert alone.value.last_step == pytest.approx(looped.value.last_step, rel=1e-12)


def with_orthant_exits(call):
    """What `call()` returns, and how many OrthantExitWarnings it raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        result = call()
    return result, sum(issubclass(w.category, OrthantExitWarning) for w in seen)


def test_kernel_warns_as_often_as_the_per_stack_loop():
    # points a hair outside the orthant, within the validation slack: their
    # means sit further out, at the start and after every step
    rng = np.random.default_rng(63)
    stacks = []
    for _ in range(3):
        shares = rng.dirichlet(np.ones(3), 6)
        coords = np.column_stack([np.sqrt(shares), np.full(6, -0.99 * sphere.ORTHANT_SLACK)])
        stacks.append(coords / np.linalg.norm(coords, axis=1, keepdims=True))
    stacks.append(sphere_stack(rng, "spread", 4, 6))
    looped = [with_orthant_exits(lambda: stack_mean(stack)) for stack in stacks]
    assert [count for _, count in looped] == [1 + iterations for (_, iterations), _ in looped[:3]] + [0]
    alone = [with_orthant_exits(lambda: sphere.means([stack]))[1] for stack in stacks]
    assert alone == [count for _, count in looped]
    assert with_orthant_exits(lambda: sphere.means(stacks))[1] == sum(alone)


def test_validate_rejects_a_point_of_one_coordinate():
    with pytest.raises(InvariantViolationError) as info:
        sphere.validate(np.ones((1, 1)))
    assert str(info.value) == "sphere point needs >= 2 coordinates"
