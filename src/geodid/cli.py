"""Command-line interface: estimation, placebo diagnostics, staggered cells,
and the Monte Carlo convergence study."""

import argparse
import json
import sys

from . import io as gio
from .did import estimate_gatt, placebo_pretrend
from .errors import (
    GeodidError,
    InvariantViolationError,
    MissingOutcomeError,
    ParseError,
)
from .simulate import SimConfig, configs_for_sizes, run_monte_carlo
from .staggered import (
    COMPARISON_NEVER,
    COMPARISON_NOT_YET,
    FORM_RECURSIVE,
    estimate_all_cells,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_ESTIMATION = 3


def _emit(payload, out_path):
    text = json.dumps(payload, indent=1)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _fail(exc, code):
    error = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(error) + "\n")
    return code


def _int_list(text):
    return [int(x) for x in text.split(",") if x.strip()]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="geodid",
        description="Difference-in-differences for outcomes in geodesic metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="two-period treatment effect")
    p_est.add_argument("--manifest", required=True)
    p_est.add_argument("--out", default=None)

    p_pla = sub.add_parser("placebo", help="pre-period parallel-trends diagnostic")
    p_pla.add_argument("--manifest", required=True)
    p_pla.add_argument("--pre-periods", default="0,1", help="two comma-separated periods")
    p_pla.add_argument("--out", default=None)

    p_stg = sub.add_parser("staggered", help="all admissible group-time effects")
    p_stg.add_argument("--manifest", required=True)
    p_stg.add_argument("--delta", type=int, default=0)
    p_stg.add_argument(
        "--comparison", choices=["never", "notyet"], default="never"
    )
    p_stg.add_argument(
        "--force-recursive", action="store_const", const=FORM_RECURSIVE, dest="estimator_form"
    )
    p_stg.add_argument("--out", default=None)

    p_sim = sub.add_parser("simulate", help="Monte Carlo convergence study")
    p_sim.add_argument("--space", choices=["wasserstein", "network"], required=True)
    p_sim.add_argument("--n", default="50,200,1000", help="comma-separated sample sizes")
    p_sim.add_argument("--q", type=int, default=200)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--treat-prob", type=float, default=0.25)
    p_sim.add_argument("--alpha1", type=float, default=1.0)
    p_sim.add_argument("--alpha2", type=float, default=1.0)
    p_sim.add_argument("--alpha3", type=float, default=1.0)
    p_sim.add_argument("--beta", type=float, default=1.0)
    p_sim.add_argument("--grid-size", type=int, default=100)
    p_sim.add_argument("--samples-per-dist", type=int, default=100)
    p_sim.add_argument("--m1", type=int, default=5)
    p_sim.add_argument("--m2", type=int, default=5)
    p_sim.add_argument("--p11", type=float, default=0.5)
    p_sim.add_argument("--p12", type=float, default=0.2)
    p_sim.add_argument("--p21", type=float, default=0.2)
    p_sim.add_argument("--p22", type=float, default=0.5)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--errors-csv", default=None)
    return parser


def _cmd_estimate(args):
    panel = gio.load_panel(args.manifest)
    estimate = estimate_gatt(panel)
    _emit(gio.gatt_to_jsonable(estimate, panel.space_id), args.out)
    return EXIT_OK


def _cmd_placebo(args):
    periods = _int_list(args.pre_periods)
    if len(periods) != 2:
        raise ParseError("--pre-periods expects exactly two comma-separated periods")
    panel = gio.load_panel(args.manifest)
    estimate = placebo_pretrend(panel, pre_periods=tuple(periods))
    _emit(gio.gatt_to_jsonable(estimate, panel.space_id), args.out)
    return EXIT_OK


def _cmd_staggered(args):
    panel = gio.load_panel(args.manifest)
    comparison = (
        COMPARISON_NEVER if args.comparison == "never" else COMPARISON_NOT_YET
    )
    results = estimate_all_cells(
        panel,
        delta=args.delta,
        comparison=comparison,
        estimator_form=args.estimator_form,
    )
    _emit(
        gio.staggered_to_jsonable(results, panel.space_id, args.delta, args.comparison),
        args.out,
    )
    return EXIT_OK


def _cmd_simulate(args):
    sizes = _int_list(args.n)
    if not sizes:
        raise ParseError("--n expects at least one sample size")
    base = SimConfig(
        space=args.space,
        q=args.q,
        seed=args.seed,
        treat_prob=args.treat_prob,
        grid_size=args.grid_size,
        sample_size_per_dist=args.samples_per_dist,
        alpha1=args.alpha1,
        alpha2=args.alpha2,
        alpha3=args.alpha3,
        beta=args.beta,
        m1=args.m1,
        m2=args.m2,
        p11=args.p11,
        p12=args.p12,
        p21=args.p21,
        p22=args.p22,
        n=sizes[0],
    )
    report = run_monte_carlo(configs_for_sizes(base, sizes))
    _emit(gio.report_to_jsonable(report), args.out)
    if args.errors_csv:
        gio.write_errors_csv(report, args.errors_csv)
    return EXIT_OK


_COMMANDS = {
    "estimate": _cmd_estimate,
    "placebo": _cmd_placebo,
    "staggered": _cmd_staggered,
    "simulate": _cmd_simulate,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, InvariantViolationError, MissingOutcomeError, ValueError) as exc:
        return _fail(exc, EXIT_INVALID_INPUT)
    except GeodidError as exc:
        return _fail(exc, EXIT_ESTIMATION)


if __name__ == "__main__":
    sys.exit(main())
