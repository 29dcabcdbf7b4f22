"""Command-line interface: limits, curves, sweep and equivalent subcommands.

All machine output is per-unit, deterministic (fixed field order, 12
significant digits) and either JSON or comma-delimited CSV with a header
row and '.' decimal separator.  Each subcommand returns its documents as
(text, path) pairs, path None meaning stdout; only ``main`` writes them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import DomainError, FeederFileError, FeederLimitsError
from .feeder import FeederModel, load_feeder, single_branch_model, two_bus_equivalent
from .limits import (OperatingPoint, TwoBusCase, binding_limit, boundary_generation,
                     marginal_limit, upf_limit_generation)
from .sweep import _MAX_GRID_POINTS, SweepConfig, frontier_curves, run_sweep
from .twobus import Impedance

Outputs = list[tuple[str, str | None]]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _round12(obj):
    """Round floats to 12 significant digits; non-finite ones become None."""
    if isinstance(obj, float):
        return float(format(obj, ".12g")) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _render(args, doc, rows: list[dict]) -> str:
    """``doc`` as JSON or ``rows`` as CSV, as --format asks."""
    return render_json(doc) if args.format == "json" else render_csv(rows)


def render_json(obj) -> str:
    return json.dumps(_round12(obj), indent=2, allow_nan=False) + "\n"


def render_csv(rows: list[dict]) -> str:
    """Header from the first row's keys, then one line per row."""
    fieldnames = list(rows[0])
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(name)) for name in fieldnames))
    return "\n".join(lines) + "\n"


def point_dict(point: OperatingPoint) -> dict:
    return {
        "pg": point.sg.p,
        "qg": point.sg.q,
        "p0": point.s0.p,
        "q0": point.s0.q,
        "vg": point.vg,
        "current": point.current,
        "losses_p": point.losses.p,
        "losses_q": point.losses.q,
        "efficiency": point.efficiency,
        "pf_gen": point.pf_gen,
        "pf_sub": point.pf_sub,
        "branch": point.branch.value,
    }


def case_dict(case: TwoBusCase) -> dict:
    return {
        "v0": case.v0,
        "r": case.z.r,
        "x": case.z.x,
        "lambda": case.z.lam(),
        "z_mag": case.z.magnitude(),
        "v_plus": case.v_plus,
        "i_plus": case.i_plus,
    }


def _resolve_feeder(args, parser) -> tuple[FeederModel, str]:
    """Feeder and generator bus from --feeder/--bus or inline --v0/--r/--x.

    Inline parameters describe a single branch to generator bus "g", with
    --i-plus as its ampacity (unbounded when omitted).
    """
    inline = args.v0 is not None or args.r is not None or args.x is not None
    if args.feeder and inline:
        parser.error("--feeder and inline --v0/--r/--x are mutually exclusive")
    if args.feeder:
        if not args.bus:
            parser.error("--bus is required with --feeder")
        return load_feeder(args.feeder), args.bus
    if args.v0 is None or args.r is None or args.x is None:
        parser.error("either --feeder/--bus or all of --v0/--r/--x are required")
    ampacity = args.i_plus if args.i_plus is not None else math.inf
    return single_branch_model(Impedance(args.r, args.x), args.v0, ampacity=ampacity), "g"


def cmd_limits(args, parser) -> Outputs:
    model, bus = _resolve_feeder(args, parser)
    if not args.feeder and args.i_plus is None:
        parser.error("--i-plus is required in inline mode")
    case, s_load = two_bus_equivalent(model, bus, v_plus=args.v_plus, i_plus=args.i_plus)
    limits = binding_limit(case)
    marginal, thermal = limits.marginal, limits.thermal
    binding, lam_prime = limits.binding.value, limits.lambda_prime
    report = {
        "case": case_dict(case),
        "lambda_prime": lam_prime,
        "binding": binding,
        "marginal": point_dict(marginal),
        "thermal": point_dict(thermal) if thermal is not None else None,
    }
    if limits.thermal_error is not None:
        report["thermal_error"] = limits.thermal_error
    if args.feeder:
        report["s_load"] = {"p": s_load.p, "q": s_load.q}
    rows = [
        {"limit": name, "binding": binding, "lambda_prime": lam_prime} | point_dict(point)
        for name, point in (("marginal", marginal), ("thermal", thermal))
        if point is not None
    ]
    return [(_render(args, report, rows), args.out)]


def cmd_curves(args, parser) -> Outputs:
    # written so that NaN fails every comparison; checked before the grid is built
    for flag, value in (("--z-mag", args.z_mag), ("--lambda-min", args.lambda_min),
                        ("--lambda-max", args.lambda_max)):
        if not 0.0 < value < math.inf:
            parser.error(f"{flag} must be positive and finite: {value!r}")
    if args.lambda_max < args.lambda_min:
        parser.error("--lambda-max must be >= --lambda-min")
    if not 1 <= args.lambda_points <= _MAX_GRID_POINTS:
        parser.error(f"--lambda-points must be between 1 and {_MAX_GRID_POINTS}")
    n = args.lambda_points
    if n == 1:
        lams = [args.lambda_min]
    else:
        lo, hi = math.log(args.lambda_min), math.log(args.lambda_max)
        lams = [math.exp(lo + k * (hi - lo) / (n - 1)) for k in range(n)]
    rows = []
    for lam in lams:
        z = Impedance.from_ratio(lam, args.z_mag)
        case = TwoBusCase(v0=args.v0, z=z, v_plus=args.v_plus, i_plus=1.0)
        point = marginal_limit(case)
        rows.append(
            {
                "lambda": lam,
                "pg_marginal": point.sg.p,
                "pg_upf": upf_limit_generation(z, args.v0, args.v_plus),
                "pg_bdry": boundary_generation(z, args.v0, args.v_plus),
                "p0_marginal": point.s0.p,
                "efficiency": point.efficiency,
                "pf_gen": point.pf_gen,
                "pf_sub": point.pf_sub,
            }
        )
    return [(_render(args, rows, rows), args.out)]


def _frontier_path(out: str) -> str:
    # the suffix of the file name only: a dot in a directory is no suffix
    return os.path.splitext(out)[0] + ".frontier.csv"


def cmd_sweep(args, parser) -> Outputs:
    if args.out is None:
        parser.error("--out is required for sweep (summary plus frontier file)")
    if args.feeder and args.i_plus is not None:
        parser.error("--i-plus applies to inline sweeps only: feeder branches keep their ampacity")
    model, bus = _resolve_feeder(args, parser)
    config = SweepConfig(
        p_range=(args.p_min, args.p_max, args.p_step),
        q_range=(args.q_min, args.q_max, args.q_step),
        v_plus=args.v_plus,
        p_plus=args.p_plus,
    )
    report = run_sweep(model, bus, config)
    errors = {
        "eps_pg_marginal": report.errors.pg_marginal,
        "eps_pg_thermal": report.errors.pg_thermal,
        "eps_p0_marginal": report.errors.p0_marginal,
        "eps_p0_thermal": report.errors.p0_thermal,
    }
    measured = {
        "pg_marginal": report.measured_pg_marginal,
        "p0_marginal": report.measured_p0_marginal,
        "pg_thermal": report.measured_pg_thermal,
        "p0_thermal": report.measured_p0_thermal,
    }
    summary = {
        "case": case_dict(report.case) | {"p_plus": config.p_plus},
        "s_load": {"p": report.s_load.p, "q": report.s_load.q},
        "measured": measured,
        "predicted_marginal": point_dict(report.predicted_marginal),
        "predicted_thermal": (
            point_dict(report.predicted_thermal)
            if report.predicted_thermal is not None
            else None
        ),
        "errors": errors,
    }
    return [
        (_render(args, summary, [measured | errors]), args.out),
        (render_csv(frontier_curves(report)), _frontier_path(args.out)),
    ]


def cmd_equivalent(args, parser) -> Outputs:
    model = load_feeder(args.feeder)
    case, s_load = two_bus_equivalent(model, args.bus, v_plus=args.v_plus, i_plus=args.i_plus)
    record = case_dict(case) | {"s_load_p": s_load.p, "s_load_q": s_load.q}
    return [(_render(args, record, [record]), args.out)]


def _add_common(sub):
    sub.add_argument("--feeder", help="feeder description file")
    sub.add_argument("--bus", help="generator bus id")
    sub.add_argument("--v0", type=float, help="source voltage, pu")
    sub.add_argument("--r", type=float, help="line resistance, pu")
    sub.add_argument("--x", type=float, help="line reactance, pu")
    sub.add_argument("--v-plus", type=float, default=1.06, help="upper voltage limit, pu")
    sub.add_argument("--i-plus", type=float, help="current limit, pu")
    _add_output(sub, "json")


def _add_output(sub, default_format: str):
    sub.add_argument("--format", choices=("csv", "json"), default=default_format)
    sub.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feederlimits",
        description="Maximum power transfer limits of radial distribution feeders",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_limits = subparsers.add_parser(
        "limits", help="closed-form thermal and marginal transfer limits"
    )
    _add_common(p_limits)
    p_limits.set_defaults(func=cmd_limits)

    p_curves = subparsers.add_parser(
        "curves", help="limit and metric curves over an R/X ratio grid"
    )
    p_curves.add_argument("--v0", type=float, default=1.0)
    p_curves.add_argument("--v-plus", type=float, default=1.06)
    p_curves.add_argument("--z-mag", type=float, default=1.0)
    p_curves.add_argument("--lambda-min", type=float, default=0.01)
    p_curves.add_argument("--lambda-max", type=float, default=100.0)
    p_curves.add_argument("--lambda-points", type=int, default=101)
    _add_output(p_curves, "csv")
    p_curves.set_defaults(func=cmd_curves)

    p_sweep = subparsers.add_parser(
        "sweep", help="brute-force grid validation of the predicted limits"
    )
    _add_common(p_sweep)
    p_sweep.add_argument("--p-plus", type=float, help="substation real power limit, pu")
    p_sweep.add_argument("--p-min", type=float, default=0.0)
    p_sweep.add_argument("--p-max", type=float, default=4.0)
    p_sweep.add_argument("--p-step", type=float, default=0.01)
    p_sweep.add_argument("--q-min", type=float, default=-4.0)
    p_sweep.add_argument("--q-max", type=float, default=4.0)
    p_sweep.add_argument("--q-step", type=float, default=0.01)
    p_sweep.set_defaults(func=cmd_sweep)

    p_equiv = subparsers.add_parser(
        "equivalent", help="two-bus equivalent of a feeder bus"
    )
    p_equiv.add_argument("--feeder", required=True)
    p_equiv.add_argument("--bus", required=True)
    p_equiv.add_argument("--v-plus", type=float, default=1.06)
    p_equiv.add_argument("--i-plus", type=float)
    _add_output(p_equiv, "json")
    p_equiv.set_defaults(func=cmd_equivalent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        outputs = args.func(args, parser)
    except FeederLimitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # bad input is a usage error; anything else failed at run time
        return 2 if isinstance(exc, (FeederFileError, DomainError)) else 1
    for text, path in outputs:
        try:
            _write(text, path)
        except OSError as exc:
            print(f"error: {path or '<stdout>'}: cannot write: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
