"""Random command lines: every run ends in a documented exit code, fast,
without a traceback."""

import contextlib
import io
import json
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riordan import cli, gf_names, series_from_text
from riordan.fixtures import FIXTURES

NAMES = gf_names()

leaves = st.one_of(
    st.integers(0, 5).map(str),
    st.just("z"),
    st.sampled_from(NAMES + ("nope",)),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        children.map(lambda e: f"-({e})"),
        st.tuples(children, st.integers(0, 6)).map(lambda t: f"({t[0]})^{t[1]}"),
        children.map(lambda e: f"sqrt({e})"),
    )


expressions = st.one_of(
    st.recursive(leaves, _combine, max_leaves=6),
    # arbitrary text over the expression alphabet, mostly parse errors
    st.text(alphabet="z0123+-*/^().sqrtfibluca_", max_size=12),
)

# valid inputs for the commands that print rows: every g has g(0) = 1 and
# every f a zero constant term, so these runs fail only on the --order or
# --rows drawn for them
units = st.sampled_from(("fib", "lucas", "cfib2", "cfib3", "1", "1/(1-z)", "1+z^2"))
valid_g = st.one_of(units, st.tuples(units, st.sampled_from("*/"), units).map(
    lambda t: f"({t[0]}){t[1]}({t[2]})"))
valid_f = st.one_of(st.sampled_from(("fib_f", "lucas_f")),
                    st.tuples(st.sampled_from(("z", "z^2", "z^3")), valid_g).map(
                        lambda t: f"{t[0]}*({t[1]})"))
VALID = {"show": (valid_g, valid_f), "apply": (valid_g, valid_f, valid_g),
         "stochastic": (valid_g,)}

COMMANDS = {
    "show": 2, "mul": 4, "inv": 2, "apply": 3, "az": 2, "stochastic": 1,
    "pseudo from-g": 1, "pseudo check": 2, "pseudo family": 1, "pseudo power": 2,
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS) + ["verify"]))
    valid = command in VALID and draw(st.booleans())
    if command == "verify":
        argv = ["verify", draw(st.sampled_from(
            [f.id for f in FIXTURES] + ["all", "no-such-fixture"]))]
    elif valid:
        argv = [command] + [draw(arg) for arg in VALID[command]]
    else:
        argv = command.split() + [draw(expressions) for _ in range(COMMANDS[command])]
    if command == "pseudo power":
        argv.append(str(draw(st.integers(-1, 3))))
    if command == "az" and draw(st.booleans()):
        argv += ["--terms", str(draw(st.integers(-1, 12)))]
    argv += ["--order", str(draw(st.integers(1 if valid else -1, 12)))]
    if draw(st.booleans()):
        argv += ["--rows", str(draw(st.integers(-1, 12)))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("table", "csv", "json")))]
    return argv


def _flag(argv, name, default=None):
    return int(argv[argv.index(name) + 1]) if name in argv else default


def _rows_printed(argv, out):
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
    if fmt == "json":
        payload = json.loads(out)
        return len(payload["coeffs"] if argv[0] == "apply" else payload["rows"])
    if argv[0] == "apply":
        return len(out.strip().split(", " if fmt == "table" else ","))
    return len(out.splitlines())


def _rows_expected(argv):
    """--rows, or 10 clamped to the order of what is printed; apply prints
    at most the order of g*h(f)."""
    order = _flag(argv, "--order", 32)
    exprs = argv[1:1 + COMMANDS[argv[0]]]
    available = min(series_from_text(e, order).order for e in exprs)
    rows = _flag(argv, "--rows")
    if rows is None:
        return min(10, available)
    return min(rows, available) if argv[0] == "apply" else rows


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_random_command_lines_end_in_documented_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejecting the command line
            code = e.code
    elapsed = time.perf_counter() - start
    assert code in {0, 1, 2, 3, 4}, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())
    assert elapsed < 2, (argv, elapsed)
    if code == 0 and argv[0] in ("show", "apply", "stochastic"):
        assert _rows_printed(argv, out.getvalue()) == _rows_expected(argv), (argv, out.getvalue())
