"""Command-line interface: character arithmetic, wall searches, reports, plots.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 on success, 1
for domain failures (an unbounded search, a rank-zero hyperbola request, a
plot window or class with no float image), 2 for malformed invocations, which
argparse reports itself, and for a ``--brute-force`` box of more than
``MAX_BOX_TRIPLES`` triples or more than ``MAX_BOX_ROWS`` rows ``(r, c)``,
refused before any scan.  JSON output always carries ``"schema": "p3walls/1"``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from . import genus4, plotting
from .chern import (
    ChernCharacter,
    _parse_integer,
    _parse_rational,
    euler_pairing,
    from_resolution,
    parse_chern,
)
from .walls import (
    DEFAULT_REGION,
    SCHEMA,
    Region,
    SearchBounds,
    WallSearchError,
    brute_force_walls,
    enumerate_tilt_walls,
    hyperbola_alpha_sq,
    wall_to_dict,
)
from .stability import TiltPoint, bmt_form

#: Largest ``--brute-force`` box, counted in ``(r, c, 2d)`` triples.
MAX_BOX_TRIPLES = 10**7
#: Largest ``--brute-force`` box, counted in rows ``(r, c)``: each row is
#: walked and clipped before the predicate sees it, so a thin box costs per
#: row walked (999,999 rows of ``1,0,-6,15`` take about 0.5 s; a wall-free
#: class walks none).
MAX_BOX_ROWS = 10**6


def _chern_arg(text: str) -> ChernCharacter:
    try:
        return parse_chern(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rational_arg(text: str) -> Fraction:
    try:
        return _parse_rational(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid rational {text!r} (expected p or p/q)")


def _positive_rational_arg(text: str) -> Fraction:
    value = _rational_arg(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"invalid value {text!r} (expected a positive rational)")
    return value


def _bound_arg(text: str) -> int:
    try:
        value = _parse_integer(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"invalid bound {text!r} (expected a nonnegative integer)")
    return value


def _resolution_term(text: str) -> tuple[int, int]:
    twist, sep, coeff = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected TWIST:COEFF, got {text!r}"
        )
    try:
        return _parse_integer(twist), _parse_integer(coeff)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad term {text!r}: {exc}")


def _region_from(args: argparse.Namespace) -> Region:
    return Region(args.beta_min, args.beta_max, args.alpha2_max)


def _add_region_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta-min", type=_rational_arg, default=DEFAULT_REGION.beta_min,
                        help="left edge of the search window (default %(default)s)")
    parser.add_argument("--beta-max", type=_rational_arg, default=DEFAULT_REGION.beta_max,
                        help="right edge of the search window (default %(default)s)")
    parser.add_argument("--alpha2-max", type=_rational_arg, default=DEFAULT_REGION.alpha_sq_max,
                        help="cap on alpha^2 (default %(default)s)")


def _cmd_chern_twist(args: argparse.Namespace) -> int:
    print(args.ch.twist(args.beta))
    return 0


def _cmd_chern_dual(args: argparse.Namespace) -> int:
    print(args.ch.dual())
    return 0


def _cmd_chern_resolve(args: argparse.Namespace) -> int:
    print(from_resolution(args.term))
    return 0


def _cmd_euler(args: argparse.Namespace) -> int:
    print(euler_pairing(args.a, args.b))
    return 0


def _cmd_walls(args: argparse.Namespace) -> int:
    region = _region_from(args)
    if args.brute_force:
        bounds = SearchBounds(args.r_max, args.c_max, args.two_d_max)
        rows = (2 * bounds.r_max + 1) * (2 * bounds.c_max + 1)
        triples = rows * (2 * bounds.two_d_max + 1)
        if triples > MAX_BOX_TRIPLES or rows > MAX_BOX_ROWS:
            print(f"error: the --brute-force box holds {triples} triples in {rows} rows, "
                  f"more than {MAX_BOX_TRIPLES} triples or {MAX_BOX_ROWS} rows", file=sys.stderr)
            return 2
        walls = brute_force_walls(args.v, region, bounds)
    else:
        walls = enumerate_tilt_walls(args.v, region)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "total": str(args.v),
            "region": {
                "beta_min": str(region.beta_min),
                "beta_max": str(region.beta_max),
                "alpha_sq_max": str(region.alpha_sq_max),
            },
            "count": len(walls),
            "walls": [wall_to_dict(w) for w in walls],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not walls:
        print("(no walls)")
        return 0
    rows = [("center", "radius_sq", "sub", "quotient")]
    for w in walls:
        rows.append((str(w.circle.center), str(w.circle.radius_sq),
                     str(w.sub), str(w.quotient)))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 0


def _cmd_hyperbola(args: argparse.Namespace) -> int:
    value = hyperbola_alpha_sq(args.v, args.beta)
    print("none" if value is None else value)
    return 0


def _cmd_bmt(args: argparse.Namespace) -> int:
    point = TiltPoint(args.beta, args.alpha2)
    print(bmt_form(args.v, point))
    return 0


def _cmd_genus4(args: argparse.Namespace) -> int:
    print(genus4.report(args.format))
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    scene = plotting.build_scene(args.v, _region_from(args), args.s)
    data = plotting.render_svg(scene)
    with open(args.out, "wb") as handle:
        handle.write(data)
    print(f"wrote {args.out}")
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by :func:`run`.

    Parsing keeps no state in the parser: every call fills a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="p3walls",
        description="exact wall-and-chamber computations on projective 3-space",
        epilog="values that begin with a dash need the equals form,"
        " e.g. --beta=-9/2 or --term=-2:1",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chern = sub.add_parser("chern", help="character arithmetic")
    chern_sub = chern.add_subparsers(dest="subcommand", required=True)
    twist = chern_sub.add_parser("twist", help="twist a character")
    twist.add_argument("--ch", type=_chern_arg, required=True,
                       help="character as r,c,d,e with rational entries")
    twist.add_argument("--beta", type=_rational_arg, required=True)
    twist.set_defaults(handler=_cmd_chern_twist)
    dual = chern_sub.add_parser("dual", help="dualize a character")
    dual.add_argument("--ch", type=_chern_arg, required=True)
    dual.set_defaults(handler=_cmd_chern_dual)
    resolve = chern_sub.add_parser(
        "resolve", help="character of a complex of twisted line bundles")
    resolve.add_argument("--term", type=_resolution_term, action="append",
                         required=True, metavar="TWIST:COEFF",
                         help="one summand, e.g. --term=-2:1 (repeatable)")
    resolve.set_defaults(handler=_cmd_chern_resolve)

    euler = sub.add_parser("euler", help="Euler pairing of two characters")
    euler.add_argument("--a", type=_chern_arg, required=True)
    euler.add_argument("--b", type=_chern_arg, required=True)
    euler.set_defaults(handler=_cmd_euler)

    walls = sub.add_parser("walls", help="enumerate tilt walls in a window")
    walls.add_argument("--v", type=_chern_arg, required=True,
                       help="total character")
    _add_region_options(walls)
    walls.add_argument("--brute-force", action="store_true",
                       help="scan an explicit integer box instead")
    walls.add_argument("--r-max", type=_bound_arg, default=5)
    walls.add_argument("--c-max", type=_bound_arg, default=20)
    walls.add_argument("--two-d-max", type=_bound_arg, default=100)
    walls.add_argument("--format", choices=("table", "json"), default="table")
    walls.set_defaults(handler=_cmd_walls)

    hyperbola = sub.add_parser(
        "hyperbola", help="height of the slope-zero hyperbola at a given beta")
    hyperbola.add_argument("--v", type=_chern_arg, required=True)
    hyperbola.add_argument("--beta", type=_rational_arg, required=True)
    hyperbola.set_defaults(handler=_cmd_hyperbola)

    bmt = sub.add_parser("bmt", help="quadratic positivity form at a point")
    bmt.add_argument("--v", type=_chern_arg, required=True)
    bmt.add_argument("--beta", type=_rational_arg, required=True)
    bmt.add_argument("--alpha2", type=_rational_arg, required=True)
    bmt.set_defaults(handler=_cmd_bmt)

    g4 = sub.add_parser(
        "genus4", help="report on the degree-6 genus-4 curve class")
    g4.add_argument("--format", choices=("text", "json"), default="text")
    g4.set_defaults(handler=_cmd_genus4)

    plot = sub.add_parser("plot", help="render the wall picture to SVG")
    plot.add_argument("--v", type=_chern_arg, required=True)
    _add_region_options(plot)
    plot.add_argument("--s", type=_positive_rational_arg, default=None,
                      help="extra stability parameter s > 0 recorded in the caption")
    plot.add_argument("--out", required=True, help="output SVG path")
    plot.set_defaults(handler=_cmd_plot)

    return parser


def _reject_dropped_values(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Before Python 3.13, argparse drops the value of ``--opt=--`` without
    calling the option's type and stores an empty list; report it as the
    usage error later versions raise."""
    for name, value in vars(args).items():
        if isinstance(value, list) and (not value or [] in value):
            parser.error(f"argument --{name.replace('_', '-')}: invalid value '--'")


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _reject_dropped_values(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, WallSearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
