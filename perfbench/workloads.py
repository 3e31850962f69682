"""The benchmark's workloads: seeded inputs, one operation, and the
reference each operation's output is checked against.

Every workload owns its inputs. `build` makes them from the seed through
geodid's public API (this is the timed set-up), `op` runs one operation of
the program, and `summarize` turns the operation's output into
`(keys, values)`: hashable labels plus a flat float vector. The `staggered`
workload runs two parts per op, the sphere estimate and the Wasserstein CLI
run; each part is a workload of its own with its own references and
tolerance. References come from two sources, and an output must match every
one that covers it:

- `model`: an independent numpy reimplementation of the estimator (and, for
  the network replicates, of the data-generating process), so any seed can
  be checked;
- `recorded`: the program's own outputs on the default seed and on one
  held-out seed, stored under `refs/` by `record_refs.py`.
"""

import json
from pathlib import Path

import numpy as np
from scipy.stats import norm

import geodid.cli
import geodid.io
import geodid.simulate
import geodid.staggered
from geodid import PanelDataset, QuantileCurve, embed_composition

REFS = Path(__file__).resolve().parent / "refs"
RECORDED_SEEDS = (0, 1)

N_UNITS = 400
N_PERIODS = 10
# first treated period of each cohort; N_PERIODS marks the never-treated group
COHORTS = (2, 3, 4, 5, 6, 7, 8, 9)
NEVER = N_PERIODS
CELLS = tuple((g, t) for g in COHORTS for t in range(g, N_PERIODS))

SPHERE_BASE_SHARES = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
SPHERE_TREND = np.array([1.0, -0.5, 0.0, 0.5, -1.0])
SPHERE_EFFECT = np.array([-1.0, 1.0, 0.5, 0.0, -0.5])
GRID_SIZE = 100

SPHERE_TOL = 1e-8
SPHERE_MAX_ITER = 200
SPHERE_STEP_TOL = 1e-10
LINEAR_TOL = 1e-9
# a self-check shifts one output value by this much; every tolerance is far below it
PERTURBATION = 1e-6


def matches(got, ref, tol):
    """Same keys, and values equal within `tol` (absolute and relative)."""
    keys, values = got
    ref_keys, ref_values = ref
    return (
        keys == ref_keys
        and values.shape == ref_values.shape
        and bool(np.allclose(values, ref_values, rtol=tol, atol=tol))
    )


def perturbed(got):
    keys, values = got
    values = values.copy()
    values[0] += PERTURBATION * max(1.0, abs(values[0]))
    return keys, values


def load_recorded(name, seed):
    """Recorded per-op summaries for (workload, seed), or None when not recorded."""
    path = REFS / f"{name}-seed{seed}.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        data = json.load(fh)
    return [
        (tuple(tuple(k) for k in op["keys"]), np.array(op["values"], dtype=float))
        for op in data["ops"]
    ]


def cohort_design(rng):
    """Balanced cohort labels in seeded order, and the staggered 0/1 treatment."""
    pattern = np.array(COHORTS + (NEVER,))
    labels = rng.permutation(np.resize(pattern, N_UNITS))
    treatment = (np.arange(N_PERIODS)[None, :] >= labels[:, None]).astype(int)
    return labels, treatment


class Workload:
    name = ""
    tolerance = LINEAR_TOL
    # ops in the traced phase: a fixed set, so that counts repeat exactly
    traced_ops = 1
    # True when every op runs on the same input and so has the same reference
    same_input = True

    def build(self, seed, workdir):
        raise NotImplementedError

    def prepare_check(self, state):
        """Untimed work after set-up: references that hold for every op."""
        state["recorded"] = load_recorded(self.name, state["seed"])

    def op(self, state, index):
        raise NotImplementedError

    def summarize(self, state, raw):
        raise NotImplementedError

    def model_reference(self, state, index):
        return state["model"]

    def references(self, state, index):
        refs = [self.model_reference(state, index)]
        recorded = state["recorded"]
        if recorded:
            slot = 0 if self.same_input else index
            if slot < len(recorded):
                refs.append(recorded[slot])
        return refs

    def check(self, state, index, got):
        """True when the summarized output matches every reference of op `index`."""
        return got is not None and all(
            matches(got, ref, self.tolerance) for ref in self.references(state, index)
        )

    def perturbations(self, got):
        """Wrong outputs that `check` must reject."""
        return [perturbed(got)]

    def bytes_written(self, state):
        return 0


# ---------------------------------------------------------------- mc-network


class NetworkReplicates(Workload):
    """One Monte Carlo replicate of the weighted-SBM network DGP per op."""

    name = "mc-network"
    traced_ops = 20
    same_input = False

    def build(self, seed, workdir):
        return {"seed": seed, "config": geodid.simulate.SimConfig(space="network", n=1000, seed=seed)}

    def op(self, state, index):
        return geodid.simulate.single_run_error(state["config"], index)

    def summarize(self, state, raw):
        return ((), np.array([np.nan if raw is None else raw], dtype=float))

    def model_reference(self, state, index):
        return ((), np.array([network_error_model(state["config"], index)]))


def network_error_model(config, run):
    """Quotient error of replicate `run`, from the DGP's random stream in numpy.

    The DGP draws, per unit and period, edge-presence uniforms then edge-noise
    uniforms on [-1, 1]; both are `low + span * next_double`, so one block
    of doubles reproduces the stream. Frobenius geometry is linear, so the
    quotient distance anchored at the true counterfactual is the norm of the
    difference between estimated and true effect matrices.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(config.n, run))
    )
    n = config.n
    d = (rng.random(n) < config.treat_prob).astype(int)
    m = config.m1 + config.m2
    block = np.repeat([0, 1], [config.m1, config.m2])
    p = np.array([[config.p11, config.p12], [config.p21, config.p22]])
    iu = np.triu_indices(m, k=1)
    edge_probs = p[block[iu[0]], block[iu[1]]]
    draws = rng.random((n, 2, 2, len(edge_probs)))
    present = draws[:, :, 0, :] < edge_probs
    noise = -1.0 + 2.0 * draws[:, :, 1, :]
    t = np.arange(2)
    base = (
        config.alpha1
        + config.alpha2 * t[None, :]
        + config.alpha3 * d[:, None]
        + config.beta * d[:, None] * t[None, :]
    )
    weights = np.zeros((n, 2, m, m))
    weights[:, :, iu[0], iu[1]] = np.where(present, base[:, :, None] + noise, 0.0)
    weights += np.swapaxes(weights, -1, -2)

    def laplacian(w):
        lap = -w
        diag = np.arange(m)
        lap[..., diag, diag] = w.sum(axis=-1)
        return lap

    laps = laplacian(weights)
    treated = d == 1
    est = {(g, s): laps[treated if g else ~treated, s].mean(axis=0) for g in (0, 1) for s in (0, 1)}
    est_effect = est[1, 1] - (est[1, 0] + est[0, 1] - est[0, 0])

    probs = p[block[:, None], block[None, :]]
    np.fill_diagonal(probs, 0.0)
    true = {
        (g, s): laplacian(
            probs * (config.alpha1 + config.alpha2 * s + g * (config.alpha3 + config.beta * s))
        )
        for g in (0, 1)
        for s in (0, 1)
    }
    true_effect = true[1, 1] - (true[1, 0] + true[0, 1] - true[0, 0])
    return float(np.linalg.norm(est_effect - true_effect))


# ---------------------------------------------------------- staggered-sphere


def sphere_shares(seed):
    """Five-part compositions, n x T, with unit effects, a trend and a cohort effect."""
    rng = np.random.default_rng([seed, 1])
    labels, treatment = cohort_design(rng)
    t = np.arange(N_PERIODS)[None, :, None]
    logits = (
        np.log(SPHERE_BASE_SHARES)
        + rng.normal(0.0, 0.3, (N_UNITS, 1, len(SPHERE_BASE_SHARES)))
        + 0.05 * t * SPHERE_TREND
        + 0.15 * treatment[:, :, None] * SPHERE_EFFECT
        + rng.normal(0.0, 0.1, (N_UNITS, N_PERIODS, len(SPHERE_BASE_SHARES)))
    )
    shares = np.exp(logits)
    return labels, treatment, shares / shares.sum(axis=-1, keepdims=True)


class StaggeredSphere(Workload):
    """All 36 not-yet-treated group-time cells of one sphere panel."""

    name = "staggered-sphere"
    tolerance = SPHERE_TOL
    traced_ops = 2

    def build(self, seed, workdir):
        labels, treatment, shares = sphere_shares(seed)
        outcomes = tuple(tuple(embed_composition(s) for s in row) for row in shares)
        return {
            "seed": seed,
            "labels": labels,
            "shares": shares,
            "panel": PanelDataset(outcomes, treatment),
        }

    def prepare_check(self, state):
        super().prepare_check(state)
        state["model"] = sphere_cells_model(state["labels"], state["shares"])

    def op(self, state, index):
        return geodid.staggered.estimate_all_cells(state["panel"], comparison="notyet")

    def summarize(self, state, raw):
        keys = tuple((r.cell.g, r.cell.t, r.estimator_form) for r in raw)
        values = np.concatenate(
            [np.concatenate([[r.magnitude], r.effect.start.coords, r.effect.end.coords]) for r in raw]
        )
        return keys, values


def _sphere_finish(x):
    return x / np.linalg.norm(x)


def karcher_mean(z):
    """Unit-step Karcher iteration from the normalised extrinsic mean."""
    x = _sphere_finish(z.mean(axis=0))
    for _ in range(SPHERE_MAX_ITER):
        cos = np.clip(z @ x, -1.0, 1.0)
        theta = np.arccos(cos)
        u = z - cos[:, None] * x
        norms = np.linalg.norm(u, axis=1)
        safe = theta >= 1e-14
        logs = np.zeros_like(z)
        logs[safe] = (theta[safe] / norms[safe])[:, None] * u[safe]
        tangent = logs.mean(axis=0)
        step = float(np.linalg.norm(tangent))
        if step >= 1e-16:
            x = _sphere_finish(np.cos(step) * x + np.sin(step) * tangent / step)
        if step < SPHERE_STEP_TOL:
            return x
    raise RuntimeError("reference Karcher mean did not converge")


def sphere_rotate(a, b, w):
    """Rotate w by the angle from a to b, in the plane of w and a->b's direction."""
    theta = np.arccos(np.clip(a @ b, -1.0, 1.0))
    if theta < 1e-14:
        return w
    v_ab = b - (a @ b) * a
    v = v_ab - (w @ v_ab) * w
    return _sphere_finish(np.cos(theta) * w + np.sin(theta) * v / np.linalg.norm(v))


def sphere_cells_model(labels, shares):
    """Recursive-form effects against the not-yet-treated cohort, per cell."""
    z = np.sqrt(shares / shares.sum(axis=-1, keepdims=True))
    cache = {}

    def mean(mask_key, mask, period):
        key = (mask_key, period)
        if key not in cache:
            cache[key] = karcher_mean(z[mask, period])
        return cache[key]

    keys, values = [], []
    for g, t in CELLS:
        treated = labels == g
        base = g - 1
        # not yet treated at t: exactly the units first treated after t
        comparison = labels > t
        beta = mean(("g", g), treated, base)
        prev = mean(("later", t), comparison, base)
        for s in range(base + 1, t + 1):
            curr = mean(("later", t), comparison, s)
            beta = sphere_rotate(prev, curr, beta)
            prev = curr
        end = mean(("g", g), treated, t)
        magnitude = 2.0 * np.arcsin(min(0.5 * np.linalg.norm(beta - end), 1.0))
        keys.append((g, t, "recursive"))
        values.append(np.concatenate([[magnitude], beta, end]))
    return tuple(keys), np.concatenate(values)


# ----------------------------------------------------------- cli-wasserstein


def wasserstein_curves(seed):
    """Gaussian quantile curves, n x T x grid, with unit effects, trend and cohort effect."""
    rng = np.random.default_rng([seed, 2])
    labels, treatment = cohort_design(rng)
    t = np.arange(N_PERIODS)[None, :]
    mu = (
        rng.normal(0.0, 1.0, (N_UNITS, 1))
        + 0.3 * t
        + 0.5 * treatment
        + rng.normal(0.0, 0.2, (N_UNITS, N_PERIODS))
    )
    sigma = np.exp(
        rng.normal(0.0, 0.2, (N_UNITS, 1))
        + 0.05 * t
        + 0.1 * treatment
        + rng.normal(0.0, 0.05, (N_UNITS, N_PERIODS))
    )
    z = norm.ppf((np.arange(GRID_SIZE) + 0.5) / GRID_SIZE)
    return labels, treatment, mu[:, :, None] + sigma[:, :, None] * z


class CliWasserstein(Workload):
    """`geodid staggered` in-process on a quantile-csv manifest."""

    name = "cli-wasserstein"
    traced_ops = 4

    def build(self, seed, workdir):
        labels, treatment, curves = wasserstein_curves(seed)
        outcomes = tuple(tuple(QuantileCurve(c) for c in row) for row in curves)
        manifest = workdir / "panel.json"
        geodid.io.save_panel(
            PanelDataset(outcomes, treatment), manifest, fmt=geodid.io.FORMAT_QUANTILE
        )
        return {
            "seed": seed,
            "labels": labels,
            "curves": curves,
            "manifest": manifest,
            "out": workdir / "cells.json",
        }

    def prepare_check(self, state):
        super().prepare_check(state)
        state["model"] = wasserstein_cells_model(state["labels"], state["curves"])

    def op(self, state, index):
        out = state["out"]
        out.unlink(missing_ok=True)
        return geodid.cli.main(
            ["staggered", "--manifest", str(state["manifest"]), "--comparison", "never", "--out", str(out)]
        )

    def summarize(self, state, raw):
        if raw != 0:
            return None
        with open(state["out"]) as fh:
            cells = json.load(fh)["cells"]
        keys = tuple((c["g"], c["t"], c["estimator_form"]) for c in cells)
        values = np.concatenate(
            [
                np.concatenate(
                    [[c["magnitude"]], c["effect"]["start"]["quantiles"], c["effect"]["end"]["quantiles"]]
                )
                for c in cells
            ]
        )
        return keys, values

    def bytes_written(self, state):
        return state["out"].stat().st_size


def wasserstein_cells_model(labels, curves):
    """Shortcut-form effects against the never-treated cohort, per cell.

    Means of quantile curves are entrywise; transport composes the end
    mean's quantile function with the start mean's CDF, both by linear
    interpolation on the midpoint grid and clamped to its end points.
    """
    grid = (np.arange(GRID_SIZE) + 0.5) / GRID_SIZE
    never = labels == NEVER
    keys, values = [], []
    for g, t in CELLS:
        treated = labels == g
        base = g - 1
        start_ref = curves[never, base].mean(axis=0)
        end_ref = curves[never, t].mean(axis=0)
        moved = np.interp(curves[treated, base].mean(axis=0), start_ref, grid)
        start = np.maximum.accumulate(np.interp(moved, grid, end_ref))
        end = curves[treated, t].mean(axis=0)
        magnitude = np.sqrt(np.mean((start - end) ** 2))
        keys.append((g, t, "shortcut"))
        values.append(np.concatenate([[magnitude], start, end]))
    return tuple(keys), np.concatenate(values)


# ----------------------------------------------------------------- staggered


class Staggered(Workload):
    """Both staggered estimates per op: the sphere panel, then the CLI run.

    The parts share the seed and the work directory; each keeps its own
    inputs, references and tolerance, and an op is correct when every part is.
    """

    name = "staggered"
    traced_ops = 2

    def __init__(self, *parts):
        self.parts = parts

    def build(self, seed, workdir):
        return {"seed": seed, "parts": [part.build(seed, workdir) for part in self.parts]}

    def prepare_check(self, state):
        for part, part_state in zip(self.parts, state["parts"]):
            part.prepare_check(part_state)

    def op(self, state, index):
        return tuple(part.op(s, index) for part, s in zip(self.parts, state["parts"]))

    def summarize(self, state, raw):
        return tuple(part.summarize(s, r) for part, s, r in zip(self.parts, state["parts"], raw))

    def check(self, state, index, got):
        return got is not None and all(
            part.check(s, index, g) for part, s, g in zip(self.parts, state["parts"], got)
        )

    def perturbations(self, got):
        """One wrong output per part, the other parts left as they were.

        A part whose output could not be read (None) is already wrong.
        """
        return [
            got[:i] + (bad,) + got[i + 1:]
            for i, part in enumerate(self.parts)
            if got[i] is not None
            for bad in part.perturbations(got[i])
        ]

    def bytes_written(self, state):
        return sum(part.bytes_written(s) for part, s in zip(self.parts, state["parts"]))


NETWORK = NetworkReplicates()
SPHERE = StaggeredSphere()
CLI = CliWasserstein()
WORKLOADS = {w.name: w for w in (NETWORK, Staggered(SPHERE, CLI))}
# the workloads whose outputs `record_refs.py` stores, one file per seed
RECORDED = (NETWORK, SPHERE, CLI)
