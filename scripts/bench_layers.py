#!/usr/bin/env python3
"""Time the layer rows of the ROADMAP's "Where things stand" table.

At each order n the inputs are g = lucas, its pseudo-involution
p = pseudo_from_g(g) with f = p.f, and the pair q = (fib, z*lucas).  The
two az rows extract the n - 1 A and Z terms that order n holds, one by
the production matrix and one by the series formulas.  The row "cli
show" runs ``riordan show`` on a pair of named-series expressions at
order n with n rows, like the benchmark's triangles workload, through
``cli.main`` with stdout sent to a StringIO.  Each row
is timed in process, best of REPEATS runs (one run at order 256 and
above), and the seconds are printed as one JSON object keyed by order and
row.  Only the public API is used, so the script also times older
checkouts of the package.
Run as ``python scripts/bench_layers.py [--orders 32 64 128 256]``.
"""

import argparse
import contextlib
import io
import json
import platform
import sys
import time

from riordan import (
    RiordanPair,
    TruncSeries,
    az_from_production,
    az_from_series,
    cli,
    named_series,
    pseudo_from_g,
)

# each row is timed best of REPEATS runs, once at SINGLE_RUN_ORDER and above
REPEATS = 3
SINGLE_RUN_ORDER = 256


def layer_rows(n: int) -> dict:
    g = named_series("lucas", n)
    p = pseudo_from_g(g)
    f = p.f
    q = RiordanPair(named_series("fib", n), TruncSeries.z(n) * g)
    return {
        "f.compose(-f)": lambda: f.compose(-f),
        "f.reverse()": f.reverse,
        "pseudo_from_g(lucas)": lambda: pseudo_from_g(g),
        "p.inverse()": p.inverse,
        "p.pseudo_involution_failure()": p.pseudo_involution_failure,
        "az_from_production(p, n-1)": lambda: az_from_production(p, n - 1),
        "az_from_series(p, n-1)": lambda: az_from_series(p, n - 1),
        "p.expand(n)": lambda: p.expand(n),
        "q.expand(n)": lambda: q.expand(n),
        "cli show": lambda: show(n),
    }


def show(n: int) -> None:
    argv = ["show", "cfib3*fib/lucas", "z*cfib2/fib", "--order", str(n), "--rows", str(n)]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"riordan {' '.join(argv)} failed")


def best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", type=int, nargs="+", default=[32, 64, 128, 256])
    args = parser.parse_args()
    seconds = {}
    for n in args.orders:
        repeats = 1 if n >= SINGLE_RUN_ORDER else REPEATS
        seconds[str(n)] = {name: best_time(fn, repeats)
                           for name, fn in layer_rows(n).items()}
    print(json.dumps({"python": platform.python_version(), "repeats": REPEATS,
                      "seconds": seconds}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
