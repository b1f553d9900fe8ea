#!/usr/bin/env python3
"""Regenerate every bundled reference matrix and sequence from scratch.

Each table is one ``riordan`` command, run through the CLI and printed by
its renderer: the arrays with their recipes, the row sums of the stochastic
pairs, and the A/Z sequence prefixes, all in exact rationals.
Run as ``python scripts/reproduce_tables.py [--order N]``.
"""

import argparse
import sys

from riordan import cli

PASCAL = ["1/(1-z)", "z/(1-z)"]
# the modified Lucas g with its leading 1 removed, and its stochastic f
REDUCED_LUCAS = ["(1+2*z)/(1-z-z^2)", "(-2*z+z^2)/(1-z-z^2)"]

TABLES = (
    ("Pascal pair (1/(1-z), z/(1-z))", ["show", *PASCAL, "--rows", "7"]),
    ("inverse of the Pascal pair", ["inv", *PASCAL, "--rows", "7"]),
    ("stochastic array from the modified Lucas numbers", ["stochastic", "lucas"]),
    ("stochastic matrix from (1+2z)/(1-z-z^2)", ["stochastic", REDUCED_LUCAS[0]]),
    ("A and Z of that stochastic matrix", ["az", *REDUCED_LUCAS]),
    ("modified Lucas pseudo-involution", ["pseudo", "from-g", "lucas", "--rows", "9"]),
    ("A and Z of the Lucas pseudo-involution", ["az", "lucas", "lucas_f"]),
    ("convolved Fibonacci pseudo-involution (n=2)",
     ["pseudo", "power", "fib", "fib_f", "2", "--rows", "9"]),
    ("A and Z of the convolved Fibonacci pseudo-involution", ["az", "cfib2", "fib_f"]),
    ("the four pseudo-involutions sharing the Fibonacci f", ["pseudo", "family", "fib_f"]),
    # A depends on f alone; the Bell member's Z is not degenerate
    ("the A sequence they share, with the Bell member's Z", ["az", "fib_f/z", "fib_f"]),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=32)
    order = str(parser.parse_args().order)
    for title, argv in TABLES:
        print(f"== {title} ==")
        code = cli.main([*argv, "--order", order])
        if code:
            return code
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
