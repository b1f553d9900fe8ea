"""Command-line surface for building, combining, analyzing and verifying
Riordan arrays.

Exit codes: 0 success, 1 verification mismatch or failed check, 2 parse
error, 3 invariant violation, 4 construction precondition failure.  An
exception that is not a RiordanError is a defect in this package; ``main``
reports it on one line, ``error: internal error (<type>): <message>``, and
exits 3, so no input ends in a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import zip_longest

from .arrays import FAMILY_KINDS, RiordanPair, TriMatrix
from .constructions import (
    family_from_f,
    power_pseudo,
    pseudo_from_g,
    stochastic_from_g,
)
from .errors import (
    ExprSyntaxError,
    OrderError,
    PreconditionError,
    RiordanError,
    UnknownNameError,
)
from .exprs import series_from_text
from .fixtures import all_fixtures, fixture_by_id
from .production import extract_az
from .series import TruncSeries, ratio_strs, rational_str

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_PRECONDITION = 4

# every command's help ends with this
EPILOG = ("An expression that starts with '-' goes after '--', which ends the "
          'options: riordan show --order 4 -- 1 "-z".')


# ---- rendering ----

def _table(rows: list[tuple[str, ...]]) -> str:
    widths = [max(map(len, col)) for col in zip_longest(*rows, fillvalue="")]
    return "\n".join("  ".join(map(str.rjust, row, widths)).rstrip() for row in rows)


def _cells(tri: TriMatrix) -> list[tuple[str, ...]]:
    """Every entry rendered once, column by column from the integer form."""
    return tri.map_rows(lambda col, k: ratio_strs(col.nums[k:], col.den))


def _triangle_payload(cells: list[tuple[str, ...]], g_text: str, f: TruncSeries, order: int) -> dict:
    return {
        "rows": cells,
        "g": g_text,
        "f_coeffs": ratio_strs(f.nums, f.den),
        "order": order,
    }


def _print_triangle(tri: TriMatrix, fmt: str, g_text: str, f: TruncSeries,
                    order: int, row_sums: bool = False) -> None:
    cells = _cells(tri)
    sums = [rational_str(s) for s in tri.row_sums()] if row_sums else None
    if fmt == "json":
        payload = _triangle_payload(cells, g_text, f, order)
        if row_sums:
            payload["row_sums"] = sums
        print(json.dumps(payload))
    elif fmt == "csv":
        if row_sums:
            cells = [(*row, s) for row, s in zip(cells, sums)]
        print("\n".join(",".join(row) for row in cells))
    else:
        if row_sums:
            width = len(cells[-1])
            cells = [(*row, *[""] * (width - len(row)), "|", s)
                     for row, s in zip(cells, sums)]
        print(_table(cells))


def _print_coeffs(strs: list[str], fmt: str, order: int) -> None:
    if fmt == "json":
        print(json.dumps({"coeffs": strs, "order": order}))
    elif fmt == "csv":
        print(",".join(strs))
    else:
        print(", ".join(strs))


def _rows(args, available: int) -> int:
    """--rows, or by default 10 clamped to the rows there are to print."""
    return min(10, available) if args.rows is None else args.rows


def _print_pair(pair: RiordanPair, args, g_text: str, row_sums: bool = False) -> None:
    """Expand ``pair`` to the rows ``_rows`` gives and print its triangle."""
    _print_triangle(pair.expand(_rows(args, pair.available_order)), args.format, g_text,
                    pair.f, args.order, row_sums)


# ---- command handlers ----

def _pair_from_args(args, g_text: str, f_text: str, warn_stretched: bool = False) -> RiordanPair:
    g = series_from_text(g_text, args.order)
    f = series_from_text(f_text, args.order)
    pair = RiordanPair(g, f)
    if warn_stretched and not pair.proper:
        print("warning: stretched pair (f'(0) = 0); group operations unavailable",
              file=sys.stderr)
    return pair


def cmd_show(args) -> int:
    pair = _pair_from_args(args, args.g, args.f, warn_stretched=True)
    _print_pair(pair, args, args.g)
    return EXIT_OK


def cmd_mul(args) -> int:
    left = _pair_from_args(args, args.g1, args.f1)
    right = _pair_from_args(args, args.g2, args.f2)
    _print_pair(left * right, args, f"({args.g1}) * (({args.g2}) composed with f1)")
    return EXIT_OK


def cmd_inv(args) -> int:
    pair = _pair_from_args(args, args.g, args.f)
    _print_pair(pair.inverse(), args, f"inverse of ({args.g})")
    return EXIT_OK


def cmd_apply(args) -> int:
    pair = _pair_from_args(args, args.g, args.f, warn_stretched=True)
    h = series_from_text(args.h, args.order)
    result = pair.apply(h)
    rows = _rows(args, result.order)
    if rows < 1:
        raise OrderError(f"rows must be positive, got {rows}")
    _print_coeffs(ratio_strs(result.nums[:rows], result.den), args.format, args.order)
    return EXIT_OK


def cmd_az(args) -> int:
    if args.terms < 1:
        raise OrderError(f"--terms must be at least 1, got {args.terms}")
    pair = _pair_from_args(args, args.g, args.f)
    report = extract_az(pair, args.terms)
    a = [rational_str(c) for c in report.a_seq]
    z = [rational_str(c) for c in report.z_seq]
    if args.format == "json":
        print(json.dumps({"a_seq": a, "z_seq": z, "terms": report.terms}))
    elif args.format == "csv":
        print(",".join(a))
        print(",".join(z))
    else:
        print("A:", ", ".join(a))
        print("Z:", ", ".join(z))
    return EXIT_OK


def cmd_stochastic(args) -> int:
    g = series_from_text(args.g, args.order)
    _print_pair(stochastic_from_g(g), args, args.g, row_sums=True)
    return EXIT_OK


def cmd_pseudo_from_g(args) -> int:
    g = series_from_text(args.g, args.order)
    pair = pseudo_from_g(g)
    if args.format == "table":
        print("f coefficients:", ", ".join(ratio_strs(pair.f.nums, pair.f.den)))
    _print_pair(pair, args, args.g)
    return EXIT_OK


def cmd_pseudo_check(args) -> int:
    pair = _pair_from_args(args, args.g, args.f)
    failure = pair.pseudo_involution_failure()
    if failure is None:
        print("PASS")
        return EXIT_OK
    print(f"FAIL at order {failure}")
    return EXIT_VERIFY


def cmd_pseudo_family(args) -> int:
    f = series_from_text(args.f, args.order)
    members = family_from_f(f)
    # the hitting-time member has the lowest order, n - 2
    rows = _rows(args, min(pair.available_order for pair in members))
    if args.format == "json":
        payload = []
        for kind, pair in zip(FAMILY_KINDS, members):
            entry = _triangle_payload(_cells(pair.expand(rows)), args.f, pair.f, args.order)
            entry["kind"] = kind
            payload.append(entry)
        print(json.dumps({"family": payload, "order": args.order}))
        return EXIT_OK
    for kind, pair in zip(FAMILY_KINDS, members):
        if args.format == "table":
            print(f"-- {kind} --")
        _print_triangle(pair.expand(rows), args.format, args.f, pair.f, args.order)
    return EXIT_OK


def cmd_pseudo_power(args) -> int:
    pair = _pair_from_args(args, args.g, args.f)
    _print_pair(power_pseudo(pair, args.n), args, f"({args.g})^{args.n}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.fixture == "all":
        targets = all_fixtures()
    else:
        try:
            targets = (fixture_by_id(args.fixture),)
        except KeyError as e:
            print(f"error: {e.args[0]}", file=sys.stderr)
            return EXIT_PARSE
    passed = 0
    for fixture in targets:
        failures = fixture.run(args.order)
        if failures:
            print(f"{fixture.id}: FAIL")
            for message in failures:
                print(f"  {message}")
        else:
            print(f"{fixture.id}: PASS")
            passed += 1
    print(f"{passed}/{len(targets)} fixtures passed")
    return EXIT_OK if passed == len(targets) else EXIT_VERIFY


# ---- argument plumbing ----

def _common_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--order", type=int, default=argparse.SUPPRESS,
                   help="series truncation order (default 32)")
    p.add_argument("--rows", type=int, default=argparse.SUPPRESS,
                   help="rows to display (default 10, or fewer if the result has "
                        "fewer coefficients)")
    p.add_argument("--format", choices=("table", "csv", "json"),
                   default=argparse.SUPPRESS, help="output format (default table)")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each ``parse_args``
    call returns a fresh namespace."""
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Exact Riordan-array toolkit: expand, combine, analyze, verify.",
        epilog=EPILOG,
        parents=[common],
    )
    parser.set_defaults(order=32, rows=None, format="table")
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, parents=[common], epilog=EPILOG)

    p = command("show", help="expand a pair (g, f)")
    p.add_argument("g")
    p.add_argument("f")
    p.set_defaults(handler=cmd_show)

    p = command("mul", help="group product of two pairs")
    p.add_argument("g1")
    p.add_argument("f1")
    p.add_argument("g2")
    p.add_argument("f2")
    p.set_defaults(handler=cmd_mul)

    p = command("inv", help="group inverse of a pair")
    p.add_argument("g")
    p.add_argument("f")
    p.set_defaults(handler=cmd_inv)

    p = command("apply", help="coefficients of g*h(f), the action on a column vector")
    p.add_argument("g")
    p.add_argument("f")
    p.add_argument("h")
    p.set_defaults(handler=cmd_apply)

    p = command("az", help="A and Z sequences of a pair")
    p.add_argument("g")
    p.add_argument("f")
    p.add_argument("--terms", type=int, default=8, help="sequence terms (default 8)")
    p.set_defaults(handler=cmd_az)

    p = command("stochastic", help="stochastic pair built from g, with row sums")
    p.add_argument("g")
    p.set_defaults(handler=cmd_stochastic)

    p = command("pseudo", help="pseudo-involution tools")
    psub = p.add_subparsers(dest="subcommand", required=True)
    subcommand = functools.partial(psub.add_parser, parents=[common], epilog=EPILOG)

    q = subcommand("from-g", help="the unique f making (g, f) a pseudo-involution")
    q.add_argument("g")
    q.set_defaults(handler=cmd_pseudo_from_g)

    q = subcommand("check", help="PASS/FAIL pseudo-involution test for (g, f)")
    q.add_argument("g")
    q.add_argument("f")
    q.set_defaults(handler=cmd_pseudo_check)

    q = subcommand("family", help="the four canonical pseudo-involutions sharing f")
    q.add_argument("f")
    q.set_defaults(handler=cmd_pseudo_family)

    q = subcommand("power", help="(g^n, f) from a pseudo-involution (g, f)")
    q.add_argument("g")
    q.add_argument("f")
    q.add_argument("n", type=int)
    q.set_defaults(handler=cmd_pseudo_power)

    p = command("verify", help="recompute bundled fixtures and compare exactly")
    p.add_argument("fixture", nargs="?", default="all",
                   help="fixture id, or 'all' (default)")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ExprSyntaxError, UnknownNameError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RiordanError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as e:
        print(f"error: internal error ({type(e).__name__}): {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
