"""Child launcher for the traced verify-cli run.

    PYTHONPATH=src python3 perfbench/child.py --spans OUT.json verify all

Imports the CLI, installs the tracing wrappers, runs ``riordan.cli.main``
on the remaining arguments as one op, writes the spans to OUT.json and
exits with main's exit code.  Each fixture is thus timed in a cold
process, before any of its lru_cached recipes are filled.
"""

from __future__ import annotations

import sys

import riordan.cli

import tracing


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--spans":
        print("usage: child.py --spans OUT.json ARGS...", file=sys.stderr)
        return 2
    path, argv = sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        # look main up again: install() rebound it to the wrapper
        code = riordan.cli.main(argv)
    finally:
        tracer.end_op()
        tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
