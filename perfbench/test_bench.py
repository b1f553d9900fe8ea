"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_bench.py -q

Run from the root of a checkout.  Checks that every workload runs in both
modes and prints every metric BENCHMARK.json names, with its unit; that a
corrupted output is counted as a failed op; that the traced span counts
of one compose-hi op and one triangles op match counts made by hand from
the source; and that every count repeats exactly across two traced runs.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import riordan.cli  # noqa: E402
from riordan import TruncSeries  # noqa: E402

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> dict:
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _counts(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith((".calls", "_share", ".errors", "out_bits_max"))}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
    repeat = _result(workload, 1)
    assert _counts(repeat["metrics"]) == _counts(result["metrics"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "compose-hi", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _corrupt_series(s: TruncSeries) -> TruncSeries:
    coeffs = list(s.coeffs)
    coeffs[3] += 1
    return TruncSeries(coeffs)


def _corrupt_pair(p):
    return riordan.RiordanPair(_corrupt_series(p.g), p.f)


CORRUPTIONS = {
    # the inverse no longer equals the MAM conjugate
    "compose-hi": (W.ComposeHi(order=16),
                   lambda out: (out[0], _corrupt_pair(out[1]), *out[2:])),
    # c * c^-1 is no longer the identity
    "small-random": (W.SmallRandom(order=8),
                     lambda out: (out[0], _corrupt_pair(out[1]), *out[2:])),
    # one entry of row 3 of the rendered triangle changes
    "triangles": (W.Triangles(sizes=(12, 16)),
                  lambda out: (out[0], _bump_row3(out[1]))),
    "verify-cli": (W.VerifyCli(round_size=1),
                   lambda out: (out[0], out[1].replace("10/10", "9/10"))),
}


def _bump_row3(text: str) -> str:
    lines = text.splitlines()
    if lines[0].startswith("{"):
        payload = json.loads(text)
        payload["rows"][3][1] = str(int(payload["rows"][3][1]) + 1)
        return json.dumps(payload)
    sep = "," if "," in lines[3] else None
    cells = lines[3].split(sep)
    cells[1] = str(int(cells[1]) + 1)
    lines[3] = (sep or "  ").join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failed(workload):
    wl, corrupt = CORRUPTIONS[workload]
    inp = wl.round_inputs(1, 0)[0]
    clean = bench.Run()
    clean.op(wl, inp, digest=False)
    assert clean.failed == 0
    bad = bench.Run()
    bad.op(wl, inp, digest=False, run=lambda x: corrupt(wl.run(x)))
    assert bad.failed == 1


def _trace_one(workload, inp) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = bench._traced_op(tracer, 0, workload, inp)
    finally:
        tracer.uninstall()
    assert workload.check(inp, out)
    return tracer.summary()


def _calls(metrics: dict) -> Counter:
    return Counter({name[:-len(".calls")]: value for name, value in metrics.items()
                    if name.endswith(".calls") and value})


def test_compose_hi_span_counts_by_hand():
    wl = W.ComposeHi(order=16)
    metrics = _trace_one(wl, ([1, 0, 1], [1, -1, -1]))  # the modified Lucas g
    # g = P/Q: 1 div.  pseudo_from_g: reverse G, -G/g, compose.
    # inverse: reverse f, compose g(fbar), 1/...  pseudo check: g(F), g*...,
    # F(F).  extract_az -> az_from_series: reverse, z/fbar, g0/g(fbar),
    # (...)/fbar; -> production_matrix: expand x2, inverse (reverse,
    # compose, div).
    assert _calls(metrics) == Counter({
        "series.div": 1 + 1 + 1 + 3 + 1,
        "series.reverse": 1 + 1 + 1 + 1,
        "series.compose": 1 + 1 + 2 + 1 + 1,
        "series.mul": 1,
        "constructions.pseudo_from_g": 1,
        "arrays.inverse": 2,
        "arrays.involution_check": 1,
        "arrays.expand": 2,
        "production.extract_az": 1,
        "production.az_from_series": 1,
        "production.production_matrix": 1,
    })
    # F(F) repeats the inner of g(F); production_matrix's inverse repeats
    # az_from_series's reversion of f and its g(fbar) inner, both at 13 terms
    assert metrics["series.compose.repeat_inner_share"] == 2 / 6
    assert metrics["series.reverse.repeat_share"] == 1 / 4
    assert all(metrics[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)


def test_triangles_span_counts_by_hand():
    wl = W.Triangles(sizes=(12, 16))
    argv = ["show", "fib^2*lucas", "z*fib", "--order", "12", "--rows", "12",
            "--format", "csv"]
    metrics = _trace_one(wl, argv)
    # g: parse, eval (*, ^, fib, lucas), fib = 1/D, lucas = N/D, fib^2 (pow
    # with two muls), the product.  f: parse, eval (*, z, fib), 1/D, z*fib.
    assert _calls(metrics) == Counter({
        "cli.main": 1,
        "exprs.parse": 2,
        "exprs.eval_series": 4 + 3,
        "constructions.named_series": 2 + 1,
        "series.div": 2 + 1,
        "series.pow": 1,
        "series.mul": 3 + 1,
        "arrays.expand": 1,
    })


def test_calibrated_clock_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    _, raw, seconds = bench.calibrated(lambda: sum(range(3_000_000)), sample_inside=True)
    assert 0 < raw < time.perf_counter() - start and seconds > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_workload_inputs_repeat_per_seed():
    for cls in (W.ComposeHi, W.SmallRandom, W.Triangles, W.VerifyCli):
        wl = cls()
        first = wl.round_inputs(5, 2)
        assert repr(first) == repr(cls().round_inputs(5, 2))
        assert repr(first) != repr(wl.round_inputs(6, 2)) or cls is W.VerifyCli


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {w["name"] for w in SPEC["workloads"]} == set(W.WORKLOADS)
