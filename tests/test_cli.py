"""End-to-end checks of the command-line surface and exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from riordan import RiordanPair, TruncSeries, cli, named_series
from riordan.fixtures import (
    FIXTURES,
    a_and_z,
    a_only,
    fixture_by_id,
    matrix,
    pseudo,
    row_sums,
    series_match,
)

PASCAL = ("1/(1-z)", "z/(1-z)")
README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- show ----

def test_show_pascal_table(capsys):
    code, out, _ = run(capsys, "show", *PASCAL, "--rows", "5")
    assert code == 0
    assert out.splitlines() == [
        "1",
        "1  1",
        "1  2  1",
        "1  3  3  1",
        "1  4  6  4  1",
    ]


def test_show_identity(capsys):
    code, out, _ = run(capsys, "show", "1", "z", "--rows", "3")
    assert code == 0
    assert out.splitlines() == ["1", "0  1", "0  0  1"]


def test_show_takes_a_leading_minus_after_double_dash(capsys):
    code, out, _ = run(capsys, "show", "--order", "4", "--", "1", "-z")
    assert code == 0
    assert out.splitlines() == ["1", "0  -1", "0   0  1", "0   0  0  -1"]
    assert "after '--'" in cli.build_parser().format_help()


@pytest.mark.parametrize("argv", [["show", "-h"], ["pseudo", "from-g", "-h"]],
                         ids=["show", "pseudo-from-g"])
def test_command_help_says_where_a_leading_minus_goes(capsys, argv):
    with pytest.raises(SystemExit) as done:
        cli.main(argv)
    assert done.value.code == 0
    # argparse rewraps the epilog to the terminal width
    assert " ".join(cli.EPILOG.split()) in " ".join(capsys.readouterr().out.split())


def test_show_lucas_pi_closed_form(capsys):
    f_expr = "(1-z-z^2-sqrt(z^4+10*z^3-13*z^2-10*z+1))/(4-2*z)"
    code, out, _ = run(capsys, "show", "(1+z^2)/(1-z-z^2)", f_expr,
                       "--rows", "9", "--format", "csv")
    assert code == 0
    assert out.splitlines()[8] == "47,967294,447998,136436,30792,5054,558,36,1"


def test_show_huge_power_is_fast_and_binomial(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "show", "(1+z)^200000", "z")
    assert time.perf_counter() - start < 2
    assert code == 0
    rows = [[int(c) for c in line.split()] for line in out.splitlines()]
    assert rows == [[comb(200000, n - k) for k in range(n + 1)] for n in range(10)]


def test_show_rejects_decimal_literal(capsys):
    code, out, err = run(capsys, "show", "1/(1-0.5*z)", "z")
    assert code == 2
    assert out == ""
    assert "unexpected character '.'" in err


def test_show_rejects_3000_nested_brackets(capsys):
    code, out, err = run(capsys, "show", "(" * 3000 + "1" + ")" * 3000, "z")
    assert code == 2
    assert out == ""
    assert err == "error: brackets nested deeper than 100 levels (at offset 100)\n"


def test_show_3000_term_flat_chain(capsys):
    code, out, err = run(capsys, "show", "+".join(["1"] * 3000), "z", "--rows", "2")
    assert code == 0
    assert out.splitlines()[0] == "3000"
    assert err == ""


def test_show_coefficient_past_the_digit_limit(capsys):
    code, out, err = run(capsys, "show", "2^200000", "z", "--order", "8", "--rows", "2")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert f"more than {sys.get_int_max_str_digits()} digits" in err


def test_show_stretched_warns(capsys):
    code, out, err = run(capsys, "show", "(1+z^2)/(1-z-z^2)",
                         "(-2*z^2+z^3)/(1-z-z^2)", "--rows", "5")
    assert code == 0
    assert "stretched" in err
    assert out.splitlines()[4].split() == ["7", "-10", "4", "0", "0"]


def test_show_json_round_trips(capsys):
    code, out, _ = run(capsys, "show", *PASCAL, "--rows", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 32
    assert payload["g"] == PASCAL[0]
    rows = [[Fraction(c) for c in row] for row in payload["rows"]]
    assert rows[5] == [1, 5, 10, 10, 5, 1]
    assert [Fraction(c) for c in payload["f_coeffs"]][:3] == [0, 1, 1]


def test_formats_agree(capsys):
    _, table_out, _ = run(capsys, "show", *PASCAL, "--rows", "6")
    _, csv_out, _ = run(capsys, "show", *PASCAL, "--rows", "6", "--format", "csv")
    _, json_out, _ = run(capsys, "show", *PASCAL, "--rows", "6", "--format", "json")
    from_table = [line.split() for line in table_out.splitlines()]
    from_csv = [line.split(",") for line in csv_out.splitlines()]
    from_json = json.loads(json_out)["rows"]
    assert from_table == from_csv == from_json


def test_order_flag_threads_before_and_after_subcommand(capsys):
    code, out, _ = run(capsys, "--order", "6", "show", *PASCAL, "--rows", "6")
    assert code == 0
    code, _, err = run(capsys, "show", *PASCAL, "--rows", "7", "--order", "6")
    assert code == 3
    assert "7" in err


# ---- mul / inv / apply ----

def test_mul_pascal_squared(capsys):
    code, out, _ = run(capsys, "mul", *PASCAL, *PASCAL, "--rows", "4",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[3] == "8,12,6,1"


def test_inv_pascal(capsys):
    code, out, _ = run(capsys, "inv", *PASCAL, "--rows", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[3] == "-1,3,-3,1"


def test_apply_row_sums(capsys):
    code, out, _ = run(capsys, "apply", *PASCAL, "1/(1-z)", "--rows", "6")
    assert code == 0
    assert out.strip() == "1, 2, 4, 8, 16, 32"


# ---- az ----

def test_az_stochastic_lucas_matrix(capsys):
    code, out, _ = run(capsys, "az", "(1+2*z)/(1-z-z^2)", "(-2*z+z^2)/(1-z-z^2)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A: -2, 1/2, -5/8, 0, 25/128, 0, -125/1024, 0"
    assert lines[1] == "Z: 3, 5/2, 25/8, 25/8, 375/128, 375/128, 3125/1024, 3125/1024"


def test_az_terms_flag_and_json(capsys):
    code, out, _ = run(capsys, "az", *PASCAL, "--terms", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"a_seq": ["1", "1", "0"], "z_seq": ["1", "0", "0"], "terms": 3}


@pytest.mark.parametrize("terms", ["0", "-2"])
def test_az_rejects_nonpositive_terms(capsys, terms):
    code, out, err = run(capsys, "az", *PASCAL, "--terms", terms)
    assert code == 3
    assert out == ""
    assert f"--terms must be at least 1, got {terms}" in err
    assert "reversion" not in err


def test_az_one_term_at_order_two(capsys):
    code, out, err = run(capsys, "az", *PASCAL, "--terms", "1", "--order", "2")
    assert (code, out, err) == (0, "A: 1\nZ: 1\n", "")


def test_az_rejects_stretched(capsys):
    code, _, err = run(capsys, "az", "(1+z^2)/(1-z-z^2)", "(-2*z^2+z^3)/(1-z-z^2)")
    assert code == 3
    assert "proper" in err


# ---- stochastic ----

def test_stochastic_lucas(capsys):
    code, out, _ = run(capsys, "stochastic", "lucas", "--rows", "10",
                       "--format", "csv")
    assert code == 0
    lines = [line.split(",") for line in out.splitlines()]
    assert lines[9][:10] == ["76", "-245", "317", "-195", "48", "0", "0", "0", "0", "0"]
    assert all(line[-1] == "1" for line in lines)


def test_stochastic_section_matrix(capsys):
    code, out, _ = run(capsys, "stochastic", "(1+2*z)/(1-z-z^2)", "--rows", "3",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[2] == "4,-7,4,1"


def test_stochastic_rejects_zero_constant(capsys):
    code, _, err = run(capsys, "stochastic", "z")
    assert code == 3


def test_stochastic_names_the_failed_constant_term(capsys):
    code, out, err = run(capsys, "stochastic", "1/2+z")
    assert (code, out) == (3, "")
    assert err == "error: stochastic construction needs g(0) = 1, got g(0) = 1/2\n"


# ---- pseudo ----

def test_pseudo_from_g_lucas(capsys):
    code, out, _ = run(capsys, "pseudo", "from-g", "lucas", "--rows", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("f coefficients: 0, 1, 5,")
    assert lines[-1].split() == ["47", "967294", "447998", "136436", "30792",
                                 "5054", "558", "36", "1"]


def test_pseudo_from_g_precondition(capsys):
    code, _, err = run(capsys, "pseudo", "from-g", "2/(1-z)")
    assert code == 4


def test_pseudo_from_g_at_order_one_names_the_order(capsys):
    code, out, err = run(capsys, "pseudo", "from-g", "1+z", "--order", "1")
    assert (code, out) == (3, "")
    assert "needs order at least 2, got 1" in err
    assert "g'(0) != 0" not in err


def test_pseudo_check_pass(capsys):
    code, out, _ = run(capsys, "pseudo", "check", *PASCAL)
    assert code == 0
    assert out.strip() == "PASS"


def test_pseudo_check_fail_reports_order(capsys):
    code, out, _ = run(capsys, "pseudo", "check", "1/(1-z)", "z")
    assert code == 1
    assert out.strip() == "FAIL at order 2"


@pytest.mark.parametrize("pair", [["1", "z^2"], ["1", "0", "--order", "1"]],
                         ids=["stretched", "order-1"])
def test_pseudo_check_rejects_an_improper_pair(capsys, pair):
    code, out, err = run(capsys, "pseudo", "check", *pair)
    assert code == 3
    assert out == ""
    assert err == "error: pseudo-involution check requires a proper pair (f'(0) != 0)\n"


def test_pseudo_family(capsys):
    f_expr = "(1-z-z^2-sqrt(5*z^4+10*z^3-z^2-6*z+1))/(2-2*z-2*z^2)"
    code, out, _ = run(capsys, "pseudo", "family", f_expr, "--rows", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    kinds = [entry["kind"] for entry in payload["family"]]
    assert kinds == ["associated", "bell", "derivative", "hitting_time"]
    bell = payload["family"][1]["rows"]
    assert bell[3] == ["32", "27", "9", "1"]


def test_pseudo_family_rejects_bad_f(capsys):
    code, _, err = run(capsys, "pseudo", "family", "z+z^2")
    assert code == 4


def test_pseudo_power(capsys):
    code, out, _ = run(capsys, "pseudo", "power", "fib",
                       "(1-z-z^2-sqrt(5*z^4+10*z^3-z^2-6*z+1))/(2-2*z-2*z^2)",
                       "2", "--rows", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[3] == "10,20,8,1"


def test_pseudo_power_rejects_non_pseudo(capsys):
    code, _, _ = run(capsys, "pseudo", "power", "1/(1-z)", "z", "2")
    assert code == 4


# ---- defaults and internal errors ----

def test_default_rows_are_clamped_to_the_order(capsys):
    code, out, _ = run(capsys, "show", "1", "z", "--order", "8")
    assert code == 0
    assert out.splitlines()[-1].split() == ["0"] * 7 + ["1"]
    assert len(out.splitlines()) == 8
    code, out, _ = run(capsys, "pseudo", "from-g", "lucas", "--order", "4")
    assert code == 0
    assert out.splitlines() == ["f coefficients: 0, 1, 5, 25",
                                "1", "1   1", "3   6   1", "4  33  11  1"]
    # the default stays 10 when the order allows it
    code, out, _ = run(capsys, "show", *PASCAL, "--order", "11")
    assert len(out.splitlines()) == 10


@pytest.mark.parametrize("order", (3, 8, 11))
def test_family_default_rows_fit_every_member(capsys, order):
    # the hitting-time member has order n - 2, the Bell and derivative
    # members n - 1
    code, out, err = run(capsys, "pseudo", "family", "fib_f", "--order", str(order))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    headers = [line for line in lines if line.startswith("-- ")]
    assert headers == [f"-- {kind} --" for kind in
                       ("associated", "bell", "derivative", "hitting_time")]
    assert len(lines) == 4 + 4 * min(10, order - 2)


@pytest.mark.parametrize("rows", ("-2", "0"))
def test_apply_rejects_rows_below_one(capsys, rows):
    code, out, err = run(capsys, "apply", "1/(1-z)", "z", "z/(1-z)", "--order", "6",
                         "--rows", rows)
    assert (code, out) == (3, "")
    assert f"rows must be positive, got {rows}" in err


@pytest.mark.parametrize("fmt", ("table", "csv", "json"))
@pytest.mark.parametrize("command", (["show", *PASCAL], ["stochastic", "lucas"],
                                     ["apply", *PASCAL, "1/(1-z)"]))
def test_rows_printed_match_the_rows_asked_for(capsys, command, fmt):
    for rows, expected in ((None, 7), ("1", 1), ("5", 5), ("0", None), ("-2", None)):
        argv = [*command, "--order", "7", "--format", fmt]
        code, out, err = run(capsys, *argv, *(("--rows", rows) if rows else ()))
        if expected is None:
            assert (code, out) == (3, "")
            assert f"rows must be positive, got {rows}" in err
            continue
        assert code == 0
        if fmt == "json":
            payload = json.loads(out)
            printed = len(payload["coeffs"] if command[0] == "apply" else payload["rows"])
        elif command[0] == "apply":
            printed = len(out.strip().split(", " if fmt == "table" else ","))
        else:
            printed = len(out.splitlines())
        assert printed == expected


def test_explicit_rows_past_the_order_still_fail(capsys):
    code, out, err = run(capsys, "show", "1", "z", "--order", "8", "--rows", "9")
    assert (code, out) == (3, "")
    assert "9 rows requested but only 8 coefficients are available" in err


def test_internal_error_is_one_line_with_exit_3(capsys, monkeypatch):
    def broken(pair, terms):
        return {}[terms]

    monkeypatch.setattr(cli, "extract_az", broken)
    code, out, err = run(capsys, "az", *PASCAL)
    assert (code, out) == (3, "")
    assert err == "error: internal error (KeyError): 8\n"


def test_one_process_runs_commands_like_separate_processes():
    # the parser is built once per process and reused by every main() call
    commands = [["show", *PASCAL, "--rows", "4"],
                ["show", "--order", "x", *PASCAL],
                ["stochastic", "lucas", "--rows", "3", "--format", "csv"],
                ["show", *PASCAL, "--rows", "4", "--format", "json"]]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    separate = []
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "riordan.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        separate.append((done.returncode, done.stdout, done.stderr))
    together = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse rejecting the command line
                code = e.code
        together.append((code, out.getvalue(), err.getvalue()))
    assert together == separate
    assert [code for code, _, _ in together] == [0, 2, 0, 0]
    assert cli.build_parser() is cli.build_parser()


# ---- parse errors ----

def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "show", "sqrt(", "z")
    assert code == 2
    assert "offset 5" in err


def test_unknown_name_exit_code(capsys):
    code, _, err = run(capsys, "show", "mystery", "z")
    assert code == 2


def test_invariant_violation_exit_code(capsys):
    code, _, err = run(capsys, "show", "z", "z")
    assert code == 3


# ---- verify ----

def test_verify_single_fixture(capsys):
    code, out, _ = run(capsys, "verify", "pascal-inverse")
    assert code == 0
    assert "pascal-inverse: PASS" in out
    assert "1/1 fixtures passed" in out


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.endswith(": PASS")) >= 10
    assert lines[-1].endswith("fixtures passed")


@pytest.mark.parametrize("order", ["1", "4", "16", "17"])
def test_verify_all_at_small_orders_matches_default(capsys, order):
    _, default, _ = run(capsys, "verify", "all")
    code, out, _ = run(capsys, "verify", "all", "--order", order)
    assert code == 0
    assert out == default


def test_verify_unknown_fixture(capsys):
    code, _, err = run(capsys, "verify", "not-a-fixture")
    assert code == 2


def _tampered(fixture_id: str, row: int, col: int):
    fixture = fixture_by_id(fixture_id)
    checks = []
    for check in fixture.checks:
        if check.compare is matrix and not checks:
            rows = [list(r) for r in check.reference]
            rows[row][col] += 1
            rows = tuple(tuple(r) for r in rows)
            checks.append(dataclasses.replace(check, reference=rows))
        else:
            checks.append(check)
    return dataclasses.replace(fixture, checks=tuple(checks))


def test_verify_tampered_fixture_reports_coordinates(capsys, monkeypatch):
    bad = _tampered("lucas-pi", 3, 1)
    monkeypatch.setattr(cli, "fixture_by_id", lambda _: bad)
    code, out, _ = run(capsys, "verify", "lucas-pi")
    assert code == 1
    assert "lucas-pi: FAIL" in out
    assert "entry (3,1): expected 34, computed 33" in out


def test_verify_all_with_one_tampered(capsys, monkeypatch):
    bad = _tampered("cfib2-pi", 2, 0)
    replaced = tuple(bad if f.id == "cfib2-pi" else f for f in FIXTURES)
    monkeypatch.setattr(cli, "all_fixtures", lambda: replaced)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "cfib2-pi: FAIL" in out
    assert "entry (2,0): expected 6, computed 5" in out
    assert "9/10 fixtures passed" in out


def _bump(rows, n, k):
    """The table with entry (n, k) raised by one."""
    return tuple(tuple(c + (i == n and j == k) for j, c in enumerate(row))
                 for i, row in enumerate(rows))


def _not_pseudo(order):
    # fib(z)*fib(-z) has coefficient 3 at z^2, so the check fails there
    return RiordanPair(named_series("fib", order), TruncSeries.z(order))


# fixture id, index and comparison of the check to break, replaced
# fields, expected line
_BROKEN_CHECKS = {
    "matrix": ("fib-f-family", 1, matrix,
               lambda c: dict(reference=_bump(c.reference, 4, 2)),
               "[bell] entry (4,2): expected 55, computed 54"),
    "az-a": ("stochastic-lucas-matrix", 1, a_and_z,
             lambda c: dict(reference=(c.reference[0][:2] + ("-5/7",) + c.reference[0][3:],
                                       c.reference[1])),
             "A[2]: expected -5/7, computed -5/8"),
    "az-z": ("lucas-pi", 1, a_and_z,
             lambda c: dict(reference=(c.reference[0],
                                       c.reference[1][:3] + ("59",) + c.reference[1][4:])),
             "Z[3]: expected 59, computed 58"),
    "a": ("fib-f-family", 10, a_only,
          lambda c: dict(reference=("2",) + c.reference[1:]),
          "[derivative] A[0]: expected 2, computed 1"),
    "pseudo": ("fib-f-family", 7, pseudo,
               lambda c: dict(build=_not_pseudo),
               "[hitting_time] pseudo-involution to order 16: expected holds, "
               "computed fails at coefficient 2"),
    "row-sums": ("stochastic-lucas-array", 1, row_sums,
                 lambda c: dict(build=fixture_by_id("lucas-pi").checks[0].build),
                 "row 1 sum: expected 1, computed 2"),
    "series": ("lucas-pi", 3, series_match,
               lambda c: dict(reference=fixture_by_id("fib-pi").checks[1].reference),
               "[closed form f] coefficient 2: expected 3, computed 5"),
}


@pytest.mark.parametrize("kind", sorted(_BROKEN_CHECKS))
def test_verify_reports_each_check_kind_failure(capsys, monkeypatch, kind):
    fixture_id, index, compare, changes, line = _BROKEN_CHECKS[kind]
    fixture = fixture_by_id(fixture_id)
    checks = list(fixture.checks)
    assert checks[index].compare is compare
    checks[index] = dataclasses.replace(checks[index], **changes(checks[index]))
    bad = dataclasses.replace(fixture, checks=tuple(checks))
    monkeypatch.setattr(cli, "fixture_by_id", lambda _: bad)
    code, out, _ = run(capsys, "verify", fixture_id)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == f"{fixture_id}: FAIL"
    assert lines[1] == f"  {line}"
    assert lines[2] == "0/1 fixtures passed"


# ---- documentation ----

def test_readme_commands_run(capsys):
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines() if line.startswith("riordan ")]
    assert len(commands) >= 11
    for argv in commands:
        code, _, err = run(capsys, *argv, "--order", "16")
        assert code == 0, (argv, err)
