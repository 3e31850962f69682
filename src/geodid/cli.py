"""Command-line interface: estimation, placebo diagnostics, staggered cells,
and the Monte Carlo convergence study."""

import argparse
import contextlib
import sys
from dataclasses import fields

from . import io as gio
from .did import estimate_gatt, placebo_pretrend
from .errors import (
    GeodidError,
    InvariantViolationError,
    MissingOutcomeError,
    ParseError,
)
from .simulate import _DGPS, SimConfig, run_monte_carlo
from .staggered import FORM_RECURSIVE, estimate_all_cells

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_ESTIMATION = 3

# every SimConfig field but the space and the sizes is a `simulate` flag of its own type
_SIM_KNOBS = [f for f in fields(SimConfig) if f.name not in ("space", "n")]
_SIM_FLAG_NAMES = {"sample_size_per_dist": "samples-per-dist"}


def _emit(payload, out_path):
    """Write `payload` as the bytes of `json.dumps(payload, indent=1)` and a line end."""
    text = gio.json_text(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _fail(exc, code):
    sys.stderr.write(gio.error_json(exc) + "\n")
    return code


def _int_list(text):
    return [int(x) for x in text.split(",") if x.strip()]


class _Parser(argparse.ArgumentParser):
    """Usage errors raise `ParseError`, which `main` reports as one JSON line;
    subparsers are built from the same class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
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
    p_sim.add_argument("--space", choices=list(_DGPS), required=True)
    p_sim.add_argument("--n", default="50,200,1000", help="comma-separated sample sizes")
    for knob in _SIM_KNOBS:
        flag = "--" + _SIM_FLAG_NAMES.get(knob.name, knob.name.replace("_", "-"))
        p_sim.add_argument(flag, dest=knob.name, type=type(knob.default), default=knob.default)
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
    results = estimate_all_cells(
        panel,
        delta=args.delta,
        comparison=args.comparison,
        estimator_form=args.estimator_form,
    )
    _emit(
        gio.staggered_to_jsonable(results, panel.space_id, args.delta, args.comparison),
        args.out,
    )
    return EXIT_OK


def _cmd_simulate(args):
    knobs = {knob.name: getattr(args, knob.name) for knob in _SIM_KNOBS}
    report = run_monte_carlo(SimConfig(space=args.space, **knobs), _int_list(args.n))
    # both outputs are opened before either is written, so a path that cannot
    # be opened leaves no report behind
    with contextlib.ExitStack() as files:
        errors_fh = args.errors_csv and files.enter_context(open(args.errors_csv, "w", newline=""))
        _emit(gio.report_to_jsonable(report), args.out)
        if errors_fh:
            gio.write_errors_csv(report, errors_fh)
    return EXIT_OK


_COMMANDS = {
    "estimate": _cmd_estimate,
    "placebo": _cmd_placebo,
    "staggered": _cmd_staggered,
    "simulate": _cmd_simulate,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ParseError, InvariantViolationError, MissingOutcomeError, ValueError, OSError) as exc:
        return _fail(exc, EXIT_INVALID_INPUT)
    except (GeodidError, MemoryError) as exc:
        return _fail(exc, EXIT_ESTIMATION)


if __name__ == "__main__":
    sys.exit(main())
