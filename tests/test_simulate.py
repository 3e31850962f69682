import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geodid
from geodid import estimate_gatt, frechet_mean, simulate
from geodid.cli import EXIT_INVALID_INPUT, build_parser, main
from geodid.geometry import distance
from geodid.simulate import (
    SimConfig,
    _block_probabilities,
    generate_panel,
    run_monte_carlo,
    single_run_error,
    slope_regression,
    true_network_gatt,
    true_wasserstein_gatt,
)
from geodid.spaces.matrix import KIND_FREE, KIND_LAPLACIAN, SymmetricMatrixPoint


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(space="banana")
    with pytest.raises(ValueError):
        SimConfig(treat_prob=0.0)
    with pytest.raises(ValueError):
        SimConfig(n=2)
    with pytest.raises(ValueError):
        SimConfig(space="network", p11=1.5)
    with pytest.raises(ValueError):
        SimConfig(sample_size_per_dist=1)
    for grid_size in (1, 0, -3):
        with pytest.raises(ValueError, match="grid_size"):
            SimConfig(grid_size=grid_size)


@pytest.mark.parametrize("m1, m2", [(0, 0), (1, 0), (-1, 3)])
def test_config_rejects_block_sizes_without_an_edge(m1, m2, capsys):
    with pytest.raises(ValueError, match="block sizes"):
        SimConfig(space="network", m1=m1, m2=m2)
    argv = ["simulate", "--space", "network", "--n", "20", "--q", "2", "--m1", str(m1), "--m2", str(m2)]
    assert main(argv) == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"


@pytest.mark.parametrize(
    "knobs",
    [
        {"space": "network", "alpha1": 1e308, "alpha3": 1e308},
        {"space": "network", "alpha1": 1e307, "m1": 10, "m2": 10},
        {"space": "network", "beta": float("nan")},
        {"space": "network", "alpha2": float("inf"), "p11": 0.0, "p12": 0.0, "p21": 0.0, "p22": 0.0},
        {"space": "wasserstein", "alpha1": 1e308, "beta": 1e308},
        {"space": "wasserstein", "alpha1": 3e307},
        {"space": "wasserstein", "alpha2": float("inf")},
        {"space": "wasserstein", "alpha3": float("-inf")},
        # the DGP's values are finite, but the replicate error squares them
        {"space": "network", "alpha1": 1e200},
        {"space": "wasserstein", "alpha1": 1e300},
    ],
    ids=[
        "network-sum",
        "network-degree",
        "network-nan",
        "network-inf-no-edges",
        "wasserstein-sum",
        "wasserstein-scale",
        "wasserstein-inf",
        "wasserstein-unused-inf",
        "network-error",
        "wasserstein-error",
    ],
)
def test_config_rejects_coefficients_that_overflow(knobs, capsys, recwarn):
    with pytest.raises(ValueError, match="coefficients"):
        SimConfig(**knobs)
    argv = ["simulate", "--n", "20", "--q", "2"]
    for name, value in knobs.items():
        argv.append(f"--{name}={value}")
    assert main(argv) == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("alpha1", [1e8, 1e12, 1e15])
def test_network_panel_with_large_weights_stays_laplacian(alpha1, tmp_path, capsys):
    # row sums round off in proportion to the weights, not below an absolute 1e-8
    config = SimConfig(space="network", n=50, alpha1=alpha1)
    panel, _ = generate_panel(config, np.random.default_rng(0))
    assert panel.fields == {"kind": KIND_LAPLACIAN}
    out = tmp_path / "r.json"
    argv = ["simulate", "--space", "network", "--n", "20,40", "--q", "2", f"--alpha1={alpha1}", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["excluded"] == {"20": 0, "40": 0}


@pytest.mark.parametrize(
    "args, sha256",
    [
        (
            ["--n", "50,200", "--q", "40", "--seed", "3"],
            "4ad542dd9bbfd489f667ece6648dcf05e46104644525b4f9ca0cb839c4625782",
        ),
        (
            ["--n", "20,40", "--q", "2", "--alpha1", "1e8"],
            "3fa87d13f43624e01be9920a390c80a16fffb3d4d159a1b6e4b8d3ab633601f8",
        ),
    ],
    ids=["seed-3", "alpha1-1e8"],
)
def test_simulate_network_writes_nothing_to_stderr(tmp_path, args, sha256):
    # an estimate inside a replicate reaches no output, so nothing about it is
    # printed (here a Laplacian kind violation); the report's bytes are pinned
    out = tmp_path / "r.json"
    src = str(Path(geodid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["simulate", "--space", "network", *args, "--out", str(out)]
    run = subprocess.run(
        [sys.executable, "-m", "geodid.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert run.returncode == 0
    assert run.stderr == b""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_config_accepts_coefficients_below_the_bounds():
    # the error's sum of squares near the largest float (1.8e308): on 19
    # nodes 361 * (16 * 18 * 2.4e150)**2 = 1.7e308, and on 100 grid values
    # 100 * (16 * (1e150 + 1e151 * 8.21))**2 = 1.7e308
    SimConfig(space="network", alpha1=1.2e150, alpha2=1.2e150, m1=10, m2=9)
    SimConfig(space="wasserstein", alpha1=5e150, beta=5e150, alpha2=-1e150)


@pytest.mark.parametrize("space", ["wasserstein", "network"])
def test_config_rejects_edge_probabilities_that_differ_by_direction(space, capsys):
    with pytest.raises(ValueError, match="p12 = 0.9 and p21 = 0.1"):
        SimConfig(space=space, p12=0.9, p21=0.1)
    argv = ["simulate", "--space", space, "--n", "20", "--q", "2", "--p12", "0.9", "--p21", "0.1"]
    assert main(argv) == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["message"] == "edge probabilities p12 = 0.9 and p21 = 0.1 differ"


def test_zero_mean_error_gives_no_slope(tmp_path, capsys):
    # without edges every Laplacian and every error is exactly 0, which has no log
    out = tmp_path / "r.json"
    edges = ["--p11", "0", "--p12", "0", "--p21", "0", "--p22", "0"]
    argv = ["simulate", "--space", "network", "--n", "10,20", "--q", "2", *edges, "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["mean_error"] == {"10": 0.0, "20": 0.0}
    assert report["slope"] is None and report["intercept"] is None


def test_true_wasserstein_gatt_unit_params():
    truth = true_wasserstein_gatt(SimConfig(grid_size=200))
    from scipy.stats import norm
    from geodid.spaces.wasserstein import midpoint_grid

    z = norm.ppf(midpoint_grid(200))
    np.testing.assert_allclose(truth.start.values, 1.0 + z)
    np.testing.assert_allclose(truth.end.values, 1.0 + 2.0 * z)


def test_true_gatt_zero_when_no_effect():
    for space, dgp in simulate._DGPS.items():
        truth = dgp.truth(SimConfig(space=space, beta=0.0))
        assert distance(truth.start, truth.end) < 1e-12


def test_dgp_names_are_the_table_keys():
    # one list of DGP names: the CLI's --space choices and the spaces SimConfig accepts
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    space = next(a for a in commands.choices["simulate"]._actions if a.dest == "space")
    assert space.choices == list(simulate._DGPS) == ["wasserstein", "network"]
    assert [SimConfig(space=name).space for name in simulate._DGPS] == list(simulate._DGPS)
    for name in ("sphere", "frobenius", "Network", ""):
        with pytest.raises(ValueError, match="unknown simulation space"):
            SimConfig(space=name)


@pytest.mark.parametrize(
    "argv",
    [
        ["--space", "network", "--n", "20,40", "--q", "2", "--alpha1", "-5"],
        ["--space", "wasserstein", "--n", "20,40", "--q", "2", "--alpha1", "-1", "--beta", "0.5"],
    ],
    ids=["network-alpha1-negative", "wasserstein-scale-negative"],
)
def test_negative_coefficients_give_a_valid_truth(argv, tmp_path, capsys, recwarn):
    # a negative mean weight makes a free network truth, not a Laplacian one,
    # and a negative scale sigma draws curves of scale |sigma|; a warning
    # would reach stderr outside pytest
    out = tmp_path / "r.json"
    assert main(["simulate", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert not recwarn.list
    report = json.loads(out.read_text())
    assert report["excluded"] == {"20": 0, "40": 0}
    assert math.isfinite(report["slope"])


def test_negative_coefficients_truths():
    # each point is a Laplacian only when its own mean weight is >= 0: the
    # start's is alpha1 + alpha2 + alpha3, the end's that plus beta
    for knobs, kinds in [
        ({"alpha1": -5.0}, (KIND_FREE, KIND_FREE)),
        ({"beta": -5.0}, (KIND_LAPLACIAN, KIND_FREE)),
        ({"alpha3": -4.0, "beta": 5.0}, (KIND_FREE, KIND_LAPLACIAN)),
        ({}, (KIND_LAPLACIAN, KIND_LAPLACIAN)),
    ]:
        network = true_network_gatt(SimConfig(space="network", **knobs))
        assert (network.start.kind, network.end.kind) == kinds
    flipped = true_wasserstein_gatt(SimConfig(alpha1=-1.0, beta=-1.0))
    truth = true_wasserstein_gatt(SimConfig(alpha1=1.0, beta=1.0))
    np.testing.assert_array_equal(flipped.start.values, truth.start.values)
    np.testing.assert_array_equal(flipped.end.values, truth.end.values)


def test_config_rejects_a_negative_seed(capsys):
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SimConfig(seed=-1)
    assert main(["simulate", "--space", "network", "--n", "20", "--q", "2", "--seed", "-1"]) == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError", "message": "seed must be >= 0, got -1"}


def test_true_network_gatt_off_diagonals():
    config = SimConfig(space="network")
    truth = true_network_gatt(config)
    # within-block edges have probability 0.5: entries -1.5 and -2.0
    assert truth.start.entries[0, 1] == pytest.approx(-1.5)
    assert truth.end.entries[0, 1] == pytest.approx(-2.0)
    # across-block edges have probability 0.2: entries -0.6 and -0.8
    assert truth.start.entries[0, 5] == pytest.approx(-0.6)
    assert truth.end.entries[0, 5] == pytest.approx(-0.8)
    # rows sum to zero (Laplacian)
    np.testing.assert_allclose(truth.start.entries.sum(axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize("space", ["wasserstein", "network"])
def test_panel_generation_shapes(space):
    config = SimConfig(space=space, n=20, seed=5)
    rng = np.random.default_rng(0)
    panel, truth = generate_panel(config, rng)
    assert panel.n_units == 20
    assert panel.n_periods == 2
    assert truth.start.space_id == panel.space_id


def loop_network_panel(config, rng):
    """The per-unit loop `generate_network_panel` replaced, kept as its oracle.

    Returns the (n, 2) nested Laplacian points, each with its own kind, and
    the treatment indicators.
    """
    n = config.n
    m, probs = _block_probabilities(config)
    d = (rng.random(n) < config.treat_prob).astype(int)
    iu = np.triu_indices(m, k=1)
    edge_probs = probs[iu]
    outcomes = []
    for i in range(n):
        row = []
        for t in (0, 1):
            present = rng.random(len(edge_probs)) < edge_probs
            noise = rng.uniform(-1.0, 1.0, size=len(edge_probs))
            base = (
                config.alpha1
                + config.alpha2 * t
                + config.alpha3 * d[i]
                + config.beta * d[i] * t
            )
            w = np.where(present, base + noise, 0.0)
            weights = np.zeros((m, m))
            weights[iu] = w
            weights += weights.T
            lap = -weights
            np.fill_diagonal(lap, weights.sum(axis=1))
            kind = KIND_LAPLACIAN if w.min() >= 0.0 else KIND_FREE
            row.append(SymmetricMatrixPoint(lap, kind=kind))
        outcomes.append(row)
    return outcomes, np.column_stack([np.zeros(n, dtype=int), d])


@pytest.mark.parametrize(
    "knobs",
    [{}, {"alpha1": -0.5}, {"m1": 3, "m2": 6, "p12": 0.7, "p21": 0.7, "treat_prob": 0.6}],
    ids=["default", "negative weights", "uneven blocks"],
)
def test_network_panel_matches_per_unit_loop(knobs):
    for seed in range(4):
        config = SimConfig(space="network", n=60, seed=seed, **knobs)
        panel, _ = generate_panel(config, np.random.default_rng(seed))
        outcomes, treatment = loop_network_panel(config, np.random.default_rng(seed))
        np.testing.assert_array_equal(panel.treatment, treatment)
        expected = np.array([[p.entries for p in row] for row in outcomes])
        np.testing.assert_array_equal(panel.data, expected)
        kinds = {p.kind for row in outcomes for p in row}
        assert panel.fields == {
            "kind": KIND_LAPLACIAN if kinds == {KIND_LAPLACIAN} else KIND_FREE
        }
        if config.alpha1 < 0:
            # some drawn weights are negative
            assert KIND_FREE in kinds
        means = estimate_gatt(panel).means
        for d in (0, 1):
            units = np.flatnonzero(treatment[:, 1] == d)
            for t in (0, 1):
                mean = means[(d, t)]
                looped = frechet_mean([outcomes[i][t] for i in units]).mean
                np.testing.assert_array_equal(mean.entries, looped.entries)


def bits(a):
    """The raw bits of a float array, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "knobs",
    [
        {},
        {"alpha1": -0.5},
        {"m1": 3, "m2": 6, "p12": 0.7, "p21": 0.7, "treat_prob": 0.6},
        {"m1": 1, "m2": 1},
        {"m1": 0, "m2": 3},
        {"m1": 2, "m2": 0},
        # the treated post-period weight overflows to inf, yet every edge is
        # absent: absent weights stay 0, not inf * 0 (the truth stays finite)
        {
            "alpha1": 0.0, "alpha2": 1e308, "alpha3": 1e308, "beta": -1e308,
            "p11": 0.0, "p12": 0.0, "p21": 0.0, "p22": 0.0,
        },
        # two full blocks of units and a remainder
        {"n": 300},
        {"n": 300, "alpha1": -0.5},
        # rows of 12 and of 19 entries: the degrees' row sums take a tail of
        # 4 after one block of 8, and a tail of 3 after two
        {"m1": 6, "m2": 6},
        {"m1": 10, "m2": 9, "alpha1": -0.5},
        # three blocks whose Laplacians are each finished in the block loop,
        # with the row sums' tail, and a partial last block
        {"n": 300, "m1": 10, "m2": 9, "alpha1": -0.5},
    ],
    ids=[
        "default",
        "negative weights",
        "uneven blocks",
        "blocks 1-1",
        "blocks 0-3",
        "blocks 2-0",
        "overflowing weight, no edges",
        "n 300",
        "n 300, negative weights",
        "blocks 6-6",
        "blocks 10-9, negative weights",
        "n 300, blocks 10-9, negative weights",
    ],
)
def test_network_panel_matches_per_unit_loop_bit_for_bit(knobs):
    for seed in range(4):
        config = SimConfig(space="network", seed=seed, **{"n": 60, **knobs})
        panel, _ = generate_panel(config, np.random.default_rng(seed))
        outcomes, treatment = loop_network_panel(config, np.random.default_rng(seed))
        expected = np.array([[p.entries for p in row] for row in outcomes])
        np.testing.assert_array_equal(bits(panel.data), bits(expected))
        means = estimate_gatt(panel).means
        for d in (0, 1):
            for t in (0, 1):
                mean = means[(d, t)]
                looped = frechet_mean([row[t] for row, g in zip(outcomes, treatment[:, 1]) if g == d]).mean
                np.testing.assert_array_equal(bits(mean.entries), bits(looped.entries))


@pytest.mark.parametrize("space", ["wasserstein", "network"])
def test_single_run_error_deterministic(space):
    config = SimConfig(space=space, n=30, seed=123)
    first = single_run_error(config, run=7)
    second = single_run_error(config, run=7)
    assert first == second
    assert single_run_error(config, run=8) != first


def test_runs_do_not_depend_on_execution_order():
    config = SimConfig(n=30, seed=9)
    forward = [single_run_error(config, run=r) for r in range(4)]
    backward = [single_run_error(config, run=r) for r in reversed(range(4))]
    assert forward == backward[::-1]


def test_slope_regression_exact_line():
    slope, intercept = slope_regression([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(1.0, abs=1e-12)


def test_slope_regression_matches_hand_ols():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=12)
    ys = rng.normal(size=12)
    slope, intercept = slope_regression(list(zip(xs, ys)))
    xbar, ybar = xs.mean(), ys.mean()
    hand_slope = np.sum((xs - xbar) * (ys - ybar)) / np.sum((xs - xbar) ** 2)
    hand_intercept = ybar - hand_slope * xbar
    assert slope == pytest.approx(hand_slope, abs=1e-12)
    assert intercept == pytest.approx(hand_intercept, abs=1e-12)


def test_slope_regression_rejects_degenerate_x():
    with pytest.raises(ValueError):
        slope_regression([(1.0, 0.0), (1.0, 2.0)])


def test_run_monte_carlo_report_fields():
    base = SimConfig(n=20, q=5, seed=11)
    report = run_monte_carlo(base, [20, 40])
    assert report.n_values == (20, 40)
    assert set(report.errors) == {20, 40}
    assert all(len(v) + report.excluded[n] == 5 for n, v in report.errors.items())
    assert report.slope is not None


def test_run_monte_carlo_deterministic():
    base = SimConfig(n=20, q=4, seed=21)
    r1 = run_monte_carlo(base, [20, 40])
    r2 = run_monte_carlo(base, [20, 40])
    assert r1.errors == r2.errors
    assert r1.slope == r2.slope


@pytest.mark.parametrize("space", ["wasserstein", "network"])
def test_process_pool_gives_the_serial_report(space):
    base = SimConfig(space=space, q=8, seed=5)
    serial = run_monte_carlo(base, [50, 200], workers=1)
    pooled = run_monte_carlo(base, [50, 200], workers=2)
    # repr spells every float exactly, so equal reprs are equal bits
    assert repr(pooled) == repr(serial)


@pytest.mark.parametrize(
    "workers, cpus, size",
    [(64, 8, 4), (64, 3, 3), (3, 8, 3), (64, None, None)],
    ids=["jobs", "cores", "workers", "unknown-cores"],
)
def test_pool_is_no_larger_than_the_jobs_and_cores(monkeypatch, workers, cpus, size):
    # a fork-started pool starts every worker at once, so a size beyond the
    # jobs or the cores only costs processes
    sizes = []

    class RecordingPool:
        """Records the pool size it is given and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
    base = SimConfig(space="network", n=20, q=2, seed=5)
    report = run_monte_carlo(base, [20, 40], workers=workers)
    assert sizes == ([] if size is None else [size])
    assert repr(report) == repr(run_monte_carlo(base, [20, 40], workers=1))


def test_error_shrinks_even_without_treatment_effect():
    # with beta = 0 the estimand is trivial but sampling noise remains;
    # the median error over runs should fall as n grows
    medians = []
    for n in (50, 400):
        config = SimConfig(n=n, q=15, seed=31, beta=0.0)
        errs = [single_run_error(config, r) for r in range(config.q)]
        errs = [e for e in errs if e is not None]
        medians.append(np.median(errs))
    assert medians[1] < medians[0]


@pytest.mark.parametrize("sizes", [[50, 50], [20, 40, 20], []], ids=["pair", "apart", "none"])
def test_run_monte_carlo_rejects_repeated_or_no_sizes(sizes):
    # a repeated size would rerun the same seeded replicates and count them twice
    with pytest.raises(ValueError, match="sample sizes"):
        run_monte_carlo(SimConfig(space="network", q=2), sizes)

