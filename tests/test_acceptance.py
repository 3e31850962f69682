"""End-to-end acceptance gate.

Each test checks one release criterion at its stated tolerance and prints a
single pass/fail line (visible with `pytest -s` or in failure output).
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from geodid.cli import EXIT_OK, main
from geodid.did import estimate_gatt, placebo_pretrend
from geodid.geometry import (
    Geodesic,
    distance,
    quotient_distance,
    transport,
)
from geodid.panel import PanelDataset
from geodid.simulate import SimConfig, run_monte_carlo
from geodid.spaces.matrix import SymmetricMatrixPoint
from geodid.spaces.wasserstein import QuantileCurve, _sample_quantiles, midpoint_grid
from geodid.staggered import (
    FORM_RECURSIVE,
    GroupTimeCell,
    enumerate_cells,
    estimate_group_time_gatt,
)

from conftest import random_composition, random_curve, random_matrix

pytestmark = [
    pytest.mark.filterwarnings("ignore::geodid.errors.OrthantExitWarning"),
    pytest.mark.filterwarnings("ignore::geodid.errors.KindViolationWarning"),
]

SAMPLERS = {
    "wasserstein": lambda rng: random_curve(rng, grid_size=100),
    "sphere": lambda rng: random_composition(rng, dim=4),
    "frobenius": lambda rng: random_matrix(rng, size=3),
}


def report(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_network_convergence_slope():
    base = SimConfig(space="network", q=200, seed=0)
    result = run_monte_carlo(base, [50, 200, 1000])
    ok = -0.60 <= result.slope <= -0.42
    report(1, f"network slope {result.slope:.3f} in [-0.60, -0.42]", ok)


def test_criterion_2_wasserstein_convergence_slope():
    base = SimConfig(space="wasserstein", q=200, seed=0)
    result = run_monte_carlo(base, [50, 200, 1000])
    ok = -0.55 <= result.slope <= -0.28
    report(2, f"wasserstein slope {result.slope:.3f} in [-0.55, -0.28]", ok)


def test_criterion_3_euclidean_reduction():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(500):
        n_c, n_t = rng.integers(1, 8, size=2)
        control = rng.normal(size=(n_c, 2))
        treated = rng.normal(size=(n_t, 2))
        outcomes, treatment = [], []
        for y0, y1 in control:
            outcomes.append(
                (SymmetricMatrixPoint([[y0]]), SymmetricMatrixPoint([[y1]]))
            )
            treatment.append([0, 0])
        for y0, y1 in treated:
            outcomes.append(
                (SymmetricMatrixPoint([[y0]]), SymmetricMatrixPoint([[y1]]))
            )
            treatment.append([0, 1])
        est = estimate_gatt(PanelDataset(tuple(outcomes), np.array(treatment)))
        scalar_did = abs(
            (treated[:, 1].mean() - treated[:, 0].mean())
            - (control[:, 1].mean() - control[:, 0].mean())
        )
        worst = max(worst, abs(est.magnitude - scalar_did))
    report(3, f"scalar DID reduction, worst gap {worst:.2e} < 1e-12", worst < 1e-12)


def test_criterion_4_population_wasserstein_gatt():
    m = 10000
    z = norm.ppf(midpoint_grid(m))
    nu00 = QuantileCurve(z)
    nu01 = QuantileCurve(1.0 + z)
    nu10 = QuantileCurve(z)
    nu11 = QuantileCurve(1.0 + 2.0 * z)
    panel = PanelDataset(
        ((nu00, nu01), (nu10, nu11)), np.array([[0, 0], [0, 1]])
    )
    est = estimate_gatt(panel)
    interior = (nu10.values > nu00.values[0]) & (nu10.values < nu00.values[-1])
    start_err = np.max(np.abs(est.effect.start.values[interior] - (1.0 + z)[interior]))
    end_err = np.max(np.abs(est.effect.end.values - (1.0 + 2.0 * z)))
    mag_err = abs(est.magnitude - 1.0)
    ok = start_err < 1e-6 and end_err < 1e-6 and mag_err < 1e-4
    report(
        4,
        f"population GATT sup-errors {start_err:.1e}/{end_err:.1e}, "
        f"|magnitude-1| {mag_err:.1e}",
        ok,
    )


def test_criterion_5_metric_axioms():
    ok = True
    for space, sample in SAMPLERS.items():
        rng = np.random.default_rng(200)
        for _ in range(1000):
            a, b, c = sample(rng), sample(rng), sample(rng)
            ok &= distance(a, b) == distance(b, a)
            ok &= distance(a, a) <= 1e-10
            ok &= distance(a, b) <= distance(a, c) + distance(c, b) + 1e-9
            if not ok:
                break
        # quotient metric on geodesics, shared random reference
        rng = np.random.default_rng(201)
        for _ in range(1000):
            pts = [sample(rng) for _ in range(7)]
            g1 = Geodesic(pts[0], pts[1])
            g2 = Geodesic(pts[2], pts[3])
            g3 = Geodesic(pts[4], pts[5])
            ref = pts[6]
            d12 = quotient_distance(g1, g2, ref)
            ok &= d12 == quotient_distance(g2, g1, ref)
            ok &= quotient_distance(g1, g1, ref) <= 1e-10
            d13 = quotient_distance(g1, g3, ref)
            d32 = quotient_distance(g3, g2, ref)
            ok &= d12 <= d13 + d32 + 1e-9
            if not ok:
                break
        if not ok:
            report(5, f"metric axioms failed for space {space}", False)
    report(5, "metric axioms, native and quotient, 1000 triples per space", ok)


def test_criterion_6_transport_contracts():
    ok = True
    detail = []
    for space, sample in SAMPLERS.items():
        rng = np.random.default_rng(300)
        worst_endpoint = 0.0
        worst_isometry = 0.0
        worst_consistency = 0.0
        for _ in range(1000):
            a, b, w, zeta = (sample(rng) for _ in range(4))
            worst_endpoint = max(worst_endpoint, distance(transport(a, b, a), b))
            if space == "frobenius":
                lhs = distance(transport(a, b, w), transport(a, b, zeta))
                worst_isometry = max(worst_isometry, abs(lhs - distance(w, zeta)))
            if space in ("wasserstein", "frobenius"):
                direct = transport(a, b, w)
                via = transport(zeta, b, transport(a, zeta, w))
                worst_consistency = max(worst_consistency, distance(direct, via))
        ok &= worst_endpoint < 1e-10
        detail.append(f"{space} endpoint {worst_endpoint:.1e}")
        if space == "frobenius":
            ok &= worst_isometry < 1e-12
            detail.append(f"isometry {worst_isometry:.1e}")
        if space in ("wasserstein", "frobenius"):
            ok &= worst_consistency < 1e-6
            detail.append(f"{space} consistency {worst_consistency:.1e}")
    report(6, "transport contracts: " + ", ".join(detail), ok)


def _random_two_period_panel(rng, space):
    sample = SAMPLERS[space]
    outcomes, treatment = [], []
    n_c, n_t = rng.integers(2, 5, size=2)
    for _ in range(n_c):
        outcomes.append((sample(rng), sample(rng)))
        treatment.append([0, 0])
    for _ in range(n_t):
        outcomes.append((sample(rng), sample(rng)))
        treatment.append([0, 1])
    return PanelDataset(tuple(outcomes), np.array(treatment))


def _random_staggered_panel(rng, space, n_periods=4):
    sample = SAMPLERS[space]
    outcomes, treatment = [], []
    for group in (None, None, 1, 2, 3):
        for _ in range(2):
            outcomes.append(tuple(sample(rng) for _ in range(n_periods)))
            if group is None:
                treatment.append([0] * n_periods)
            else:
                treatment.append([int(t >= group) for t in range(n_periods)])
    return PanelDataset(tuple(outcomes), np.array(treatment))


def test_criterion_7_staggered_reduction():
    rng = np.random.default_rng(400)
    spaces = sorted(SAMPLERS)
    worst_reduction = 0.0
    for i in range(200):
        space = spaces[i % 3]
        panel = _random_two_period_panel(rng, space)
        plain = estimate_gatt(panel)
        cell = GroupTimeCell(g=1, t=1)
        staggered = estimate_group_time_gatt(panel, cell)
        gap = quotient_distance(staggered.effect, plain.effect, plain.effect.start)
        worst_reduction = max(worst_reduction, gap)
    worst_agreement = 0.0
    for space in ("wasserstein", "frobenius"):
        for _ in range(10):
            panel = _random_staggered_panel(rng, space)
            for cell in enumerate_cells(panel):
                short = estimate_group_time_gatt(panel, cell)
                rec = estimate_group_time_gatt(panel, replace(cell, estimator_form=FORM_RECURSIVE))
                worst_agreement = max(
                    worst_agreement,
                    distance(short.effect.start, rec.effect.start),
                )
    ok = worst_reduction < 1e-10 and worst_agreement < 1e-8
    report(
        7,
        f"two-period reduction {worst_reduction:.1e}, "
        f"shortcut vs recursive {worst_agreement:.1e}",
        ok,
    )


def _placebo_panel(rng, n, grid_size=100, samples=100):
    # the Gaussian-curve generating process frozen at its baseline period:
    # each unit's distribution is fixed and observed twice with fresh
    # sampling noise, so there is no trend and no effect
    groups = (rng.random(n) < 0.25).astype(int)
    curves = np.empty((n, 2, grid_size))
    mu = rng.normal(0.0, 1.0, size=n)
    for t in (0, 1):
        draws = mu[:, None] + norm.ppf(rng.random((n, samples)))
        curves[:, t, :] = _sample_quantiles(draws, grid_size)
    treatment = np.zeros((n, 2), dtype=int)
    return PanelDataset.from_array(curves, treatment, "wasserstein", {}), groups


def test_criterion_8_placebo_no_effect():
    rng = np.random.default_rng(500)
    small = 0
    reps = 100
    for _ in range(reps):
        panel, groups = _placebo_panel(rng, n=2000)
        est = placebo_pretrend(panel, pre_periods=(0, 1), groups=groups)
        if est.magnitude < 0.1:
            small += 1
    ok = small >= 95
    report(8, f"placebo magnitude < 0.1 in {small}/100 replications", ok)


def test_criterion_9_simulate_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["simulate", "--space", "network", "--n", "20,50", "--q", "5", "--seed", "42"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    same = out1.read_bytes() == out2.read_bytes()
    json.loads(out1.read_text())  # well-formed output
    report(9, "identical seeds give bitwise-identical simulate JSON", same)
