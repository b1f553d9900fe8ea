"""Benchmark entry point: one seeded workload, timed, checked, one JSON line.

    python3 perfbench/run.py --workload compose-hi --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; the program is imported from ./src.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (closed loop, one caller, tracing off).  Times are
calibrated: each is scaled by the speed of a fixed reference computation
measured around it, and for in-process ops also during it (see
``calibrated``), so they read as seconds on a host where the reference
takes ``REF_S``; the wall-clock figures are printed above the result line.

* ``setup_s``: interpreter start, ``import riordan.cli`` and the generation
  of the first round of inputs, up to the first timed op; the median of
  ``SETUP_REPEATS`` fresh interpreters.
* ``ops_per_s``: ops completed over the summed op time.
* ``op_p50_ms``: median op latency (the sample count is printed above the
  result line, with p90 where a run holds at least 100 ops).
* ``ok_ratio``: ops that returned and passed their exact check, over ops
  attempted; the complement of the failure ratio, which would read 0.
* ``peak_rss_mb``: peak RSS of the process doing the work; for verify-cli,
  the largest op child.

The traced run executes each op of the first round twice, untraced and
traced, so every count repeats exactly for a seed, and reports their
throughput ratio as ``trace.overhead_ratio``.  Its spans are written to
``.bench_out/<workload>-<seed>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

SETUP_REPEATS = 9
IMPORT_REPEATS = 5
OUT_DIR = ".bench_out"
HERE = os.path.dirname(os.path.abspath(__file__))


def _fail_setup(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Put ./src first on the path; refuse to run without the program."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "riordan", "__init__.py")):
        _fail_setup("run from the root of a checkout: ./src/riordan not found")
    sys.path.insert(0, src)


def _workload(name: str, tiny: bool):
    import workloads as W

    if name not in W.WORKLOADS:
        _fail_setup(f"unknown workload {name!r} (known: {', '.join(W.WORKLOADS)})")
    cls = W.WORKLOADS[name]
    if not tiny:
        return cls()
    return {"compose-hi": lambda: cls(order=16), "small-random": lambda: cls(order=8),
            "triangles": lambda: cls(sizes=(12, 16)),
            "verify-cli": lambda: cls(round_size=1)}[name]()


# ---- the calibrated clock ----

REF_S = 0.007
"""Nominal duration of one reference measurement, in seconds."""
SAMPLE_EVERY_S = 0.15


def _reference_work() -> None:
    # exact-series work of the same kind as the program's (Fraction
    # products and sums), written here so no change to the program moves it
    a = [Fraction(1, i + 2) for i in range(40)]
    out = [Fraction(0)] * 40
    for i in range(40):
        for j in range(40 - i):
            out[i + j] += a[i] * a[j]


def reference() -> float:
    """Wall time of a fixed computation, to calibrate what is timed next to it.

    A shared host can slow every process on it by up to 2x for seconds to
    minutes at a time (seen on a 2-core VM).  Each timing is scaled by
    ``REF_S / (mean reference time around it)``, which cancels that drift
    while keeping every change in the program's own cost.
    """
    start = time.perf_counter()
    _reference_work()
    _reference_work()
    return time.perf_counter() - start


def calibrated(fn, sample_inside: bool = False):
    """(result, raw seconds, calibrated seconds) of one call of ``fn``.

    References are measured just before and after the call and, with
    ``sample_inside``, every ``SAMPLE_EVERY_S`` during it from a timer
    signal, whose time is taken out of the call's.  Only in-process calls
    sample inside: a child process would keep running while the handler
    does, and on a 2-core VM the two contend enough to slow the child by a
    third.
    """
    refs = [reference()]
    spent = 0.0

    def on_alarm(signum, frame):
        nonlocal spent
        start = time.perf_counter()
        refs.append(reference())
        spent += time.perf_counter() - start

    if sample_inside:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        raw = time.perf_counter() - start
        if sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    raw -= spent
    refs.append(reference())
    return result, raw, raw * REF_S / statistics.mean(refs)


# ---- set-up time ----

def setup_probe(args) -> None:
    """Child body: import, generate the first round, report ready."""
    _import_program()
    import riordan.cli  # noqa: F401  (the CLI workloads import it; so do users)

    _workload(args.workload, args.tiny).round_inputs(args.seed, 0)
    print("ready", flush=True)


def measure_setup(args) -> list[float]:
    """Calibrated seconds from spawning a probe to its "ready", per probe."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")

    def probe() -> str:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            return proc.stdout.readline()
        finally:
            proc.stdout.close()
            if proc.wait() != 0:
                _fail_setup("set-up probe failed")

    out = []
    for _ in range(SETUP_REPEATS):
        line, _, seconds = calibrated(probe)
        if line.strip() != "ready":
            _fail_setup("set-up probe failed")
        out.append(seconds)
    return out


def measure_import() -> list[float]:
    """cli.import_s: ``import riordan.cli`` alone, in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import riordan.cli; print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_REPEATS):
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, check=True)
        out.append(float(result.stdout))
    return out


# ---- the timed loop ----

class Run:
    """Outcome of a sequence of ops: latencies, failures, first-round digest."""

    def __init__(self, sample_inside: bool = False):
        self.sample_inside = sample_inside
        self.latencies: list[float] = []  # calibrated
        self.raw: list[float] = []  # wall clock
        self.failed = 0
        self.digest = hashlib.sha256()

    def op(self, workload, inp, digest: bool, run=None) -> float:
        """Time, check and digest one op; returns its wall-clock seconds."""
        run = run or workload.run
        error = None

        def call():
            nonlocal error
            try:
                return run(inp)
            except Exception as e:  # a raising op is a failed op, not a crash
                error = e

        out, raw, seconds = calibrated(call, self.sample_inside)
        self.raw.append(raw)
        self.latencies.append(seconds)
        if error is not None:
            print(f"op failed: {type(error).__name__}: {error}", file=sys.stderr)
            self.failed += 1
            return raw
        if not workload.check(inp, out):
            print(f"op check failed: {inp!r}"[:300], file=sys.stderr)
            self.failed += 1
        if digest:
            self.digest.update(workload.digest(inp, out).encode())
            self.digest.update(b"\0")
        return raw


def timed_loop(workload, seed: int, seconds: float) -> Run:
    """Whole rounds until the summed op time reaches ``seconds``."""
    run = Run(sample_inside=workload.name != "verify-cli")
    busy = 0.0
    r = 0
    while True:
        inputs = workload.round_inputs(seed, r)
        for inp in inputs:
            busy += run.op(workload, inp, digest=r == 0)
        r += 1
        if busy >= seconds:
            return run


def end_to_end(args, workload) -> dict:
    setup = measure_setup(args)
    run = timed_loop(workload, args.seed, args.seconds)
    lat = run.latencies
    n = len(lat)
    if workload.name == "verify-cli":
        rss_kib = workload.peak_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "ok_ratio": ((n - run.failed) / n, "ratio"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    p90 = ""
    if n >= 100:  # p90 has at least ten samples beyond it
        p90 = f", p90 {statistics.quantiles(lat, n=10)[-1] * 1000:.3f} ms"
    print(f"{args.workload} seed {args.seed}: {n} ops, p50 over {n} samples{p90}; "
          f"setup samples {', '.join(f'{s:.4f}' for s in setup)} s; wall clock: "
          f"p50 {statistics.median(run.raw) * 1000:.3f} ms, "
          f"{n / sum(run.raw):.4f} ops/s")
    print(f"digest {args.workload} seed {args.seed}: {run.digest.hexdigest()}")
    return _result(run.failed, n, metrics)


def traced(args, workload, units: list[tuple[str, str]]) -> dict:
    """The first round, each op run untraced and traced, in alternating order
    so that neither pass always meets the colder process."""
    import tracing

    tracer = tracing.Tracer()
    inputs = workload.round_inputs(args.seed, 0)
    spans_dir = os.path.abspath(os.path.join(OUT_DIR, f"{args.workload}-{args.seed}"))
    os.makedirs(spans_dir, exist_ok=True)
    plain, traced_run = Run(), Run()

    def traced_op(i, inp):
        if workload.name == "verify-cli":
            path = os.path.join(spans_dir, f"child-{i}.json")
            launcher = [os.path.join(HERE, "child.py"), "--spans", path]
            traced_run.op(workload, inp, digest=True,
                          run=lambda argv: workload.run(argv, launcher))
            tracer.absorb(path, i)
            return
        tracer.install()
        try:
            traced_run.op(workload, inp, digest=True,
                          run=lambda x: _traced_op(tracer, i, workload, x))
        finally:
            tracer.uninstall()

    for i, inp in enumerate(inputs):
        if i % 2:
            traced_op(i, inp)
        plain.op(workload, inp, digest=True)
        if not i % 2:
            traced_op(i, inp)
    tracer.dump(os.path.join(spans_dir, "spans.json"))
    metrics = tracer.summary()
    metrics["cli.import_s"] = statistics.median(measure_import())
    metrics["trace.overhead_ratio"] = sum(plain.latencies) / sum(traced_run.latencies)
    if plain.digest.hexdigest() != traced_run.digest.hexdigest():
        print("traced outputs differ from untraced outputs", file=sys.stderr)
        traced_run.failed += len(inputs)
    out = {name: (metrics.get(name, 0), unit) for name, unit in units}
    extra = sorted(set(metrics) - set(out))
    if extra:
        print(f"unlisted per-layer metrics: {extra}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: traced {len(inputs)} ops; "
          f"spans in {spans_dir}")
    return _result(plain.failed + traced_run.failed, 2 * len(inputs), out)


def _traced_op(tracer, op_id: int, workload, inp):
    """One op with spans recorded; the check runs after, unrecorded."""
    tracer.begin_op(op_id)
    try:
        return workload.run(inp)
    finally:
        tracer.end_op()


def _result(failed: int, attempted: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def per_layer_units() -> list[tuple[str, str]]:
    """The per-layer metrics BENCHMARK.json names, in its order."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (tiny orders), not for measurement")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    _import_program()
    import riordan.cli  # noqa: F401

    workload = _workload(args.workload, args.tiny)
    if args.trace:
        result = traced(args, workload, per_layer_units())
    else:
        result = end_to_end(args, workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
