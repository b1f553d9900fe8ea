"""The four seeded workloads: input generation, one op, and its exact check.

Every workload is a closed loop with one caller.  Inputs come in rounds:
round ``r`` of seed ``s`` is a pure function of ``(s, r)``, so the same
seed always gives the same inputs, and each round draws afresh instead of
replaying the first (a result cache in the program would otherwise turn
the loop into cache hits).  A run executes whole rounds, so each run
covers the same mix of input strata.

Each op returns its outputs; ``check`` verifies them exactly, outside the
timed region, and ``digest`` renders them canonically so two commits can
show bit-identical results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import riordan
from riordan import RiordanPair, TruncSeries

SRC = os.path.abspath("src")


def _rng(seed: int, name: str, r: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{r}")


def _text(coeffs) -> str:
    return ",".join(map(str, coeffs))


def _pair_text(pair: RiordanPair) -> str:
    return f"g={_text(pair.g.coeffs)};f={_text(pair.f.coeffs)}"


def _number(text: str):
    return Fraction(text) if "/" in text else int(text)


def _coprime(p: list[int], q: list[int]) -> bool:
    """Quadratics 1+p1 z+p2 z^2 and 1+q1 z+q2 z^2 share no root (resultant != 0)."""
    _, p1, p2 = p
    _, q1, q2 = q
    res = (p2 - q2) ** 2 + (p1 - q1) * (p1 * q2 - q1 * p2)
    return res != 0


class ComposeHi:
    """pseudo_from_g -> inverse -> pseudo_involution_failure -> extract_az(12).

    g = P/Q at order 48 with P, Q coprime quadratics with constant term 1
    and integer coefficients in [-2, 2], and g'(0) = p1 - q1 = +-1, so every
    intermediate series has integer coefficients.  Each round holds one g
    per denominator stratum Q, in seeded order.  At order 64 one op takes
    2.4-5.3 s on a 2-core VM, too few ops for a steady 20 s run; at 48
    it takes 1-2 s and nearly all of it is still compose and reverse.
    """

    name = "compose-hi"
    ORDER = 48
    terms = 12
    DENOMINATORS = ([1, -1, -1], [1, -2, 1], [1, 1, -2], [1, 0, -2])

    def __init__(self, order: int = ORDER):
        self.order = order

    def round_inputs(self, seed: int, r: int) -> list:
        rng = _rng(seed, self.name, r)
        out = []
        for q in rng.sample(self.DENOMINATORS, len(self.DENOMINATORS)):
            while True:
                p = [1, q[1] + rng.choice((-1, 1)), rng.randint(-2, 2)]
                if abs(p[1]) <= 2 and _coprime(p, q):
                    break
            out.append((p, q))
        return out

    def run(self, inp):
        p, q = inp
        n = self.order
        g = TruncSeries.polynomial(p, n) / TruncSeries.polynomial(q, n)
        pair = riordan.pseudo_from_g(g)
        inv = pair.inverse()
        failure = pair.pseudo_involution_failure()
        report = riordan.extract_az(pair, self.terms)
        return pair, inv, failure, report

    def check(self, inp, out) -> bool:
        # extract_az raises if its two routes disagree, failing the op
        pair, inv, failure, report = out
        return failure is None and inv == pair.mam_conjugate()

    def digest(self, inp, out) -> str:
        pair, inv, failure, report = out
        return (f"{inp};{_pair_text(pair)};{_pair_text(inv)};{failure};"
                f"A={_text(report.a_seq)};Z={_text(report.z_seq)}")


class SmallRandom:
    """Group product, inverse, pseudo-involution check, apply and extract_az(6).

    Two proper pairs a, b at order 16 and a series h.  Coefficients are
    rationals p/d with |p| <= 4; a's denominators come from {1, 2, 4},
    b's from {1, 3, 9} and h's from {1, 5}, so sums of their products have
    growing common denominators.  g and f are rational functions of degree
    2 over degree 1; pairs whose product has g'(0) = 0 (a degenerate Z
    sequence) are redrawn.
    """

    name = "small-random"
    ORDER = 16
    terms = 6
    round_size = 32

    def __init__(self, order: int = ORDER):
        self.order = order

    def _series(self, rng, dens, const, lead) -> TruncSeries:
        n = self.order

        def c():
            return Fraction(rng.randint(-4, 4), rng.choice(dens))

        num = [Fraction(const), lead(), c()]
        den = [Fraction(1), c()]
        return TruncSeries.polynomial(num, n) / TruncSeries.polynomial(den, n)

    def _pair(self, rng, dens) -> RiordanPair:
        def nonzero():
            while True:
                x = Fraction(rng.randint(-4, 4), rng.choice(dens))
                if x:
                    return x

        g = self._series(rng, dens, 1, nonzero)
        f = TruncSeries.z(self.order) * self._series(rng, dens, nonzero(), nonzero)
        return RiordanPair(g, f)

    def round_inputs(self, seed: int, r: int) -> list:
        rng = _rng(seed, self.name, r)
        out = []
        while len(out) < self.round_size:
            a = self._pair(rng, (1, 2, 4))
            b = self._pair(rng, (1, 3, 9))
            h = self._series(rng, (1, 5), rng.randint(1, 4),
                             lambda: Fraction(rng.randint(-4, 4), 5))
            # [z^1] of the product's g: a.g1*b.g0 + a.g0*b.g1*a.f1
            ag, af, bg = a.g.coeffs, a.f.coeffs, b.g.coeffs
            if ag[1] * bg[0] + ag[0] * bg[1] * af[1]:
                out.append((a, b, h))
        return out

    def run(self, inp):
        a, b, h = inp
        c = a * b
        ci = c.inverse()
        failure = c.pseudo_involution_failure()
        applied = c.apply(h)
        report = riordan.extract_az(c, self.terms)
        return c, ci, failure, applied, report

    def check(self, inp, out) -> bool:
        c, ci, failure, applied, report = out
        return c * ci == RiordanPair.identity(self.order)

    def digest(self, inp, out) -> str:
        c, ci, failure, applied, report = out
        return (f"{_pair_text(c)};{_pair_text(ci)};{failure};{_text(applied.coeffs)};"
                f"A={_text(report.a_seq)};Z={_text(report.z_seq)}")


class Triangles:
    """In-process ``riordan.cli.main`` for ``show`` and ``stochastic``.

    Each round runs both commands at N = 128, then one more at 128 and the
    other at 96 (``--order N --rows N``), in seeded order, each with a seeded
    format (table, csv or json) and seeded expressions over fib, lucas,
    cfib2, cfib3, ^k, sqrt and /; never fib_f or lucas_f, so no op composes
    or reverts a series.
    """

    name = "triangles"
    SIZES = (96, 128)
    FORMATS = ("table", "csv", "json")
    # Every named series is (1+z^2)^i / D^e with D = 1-z-z^2; cost grows
    # with the net power of 1/D, so g is drawn with net power 3 and f/z with
    # net power 1.  g(0) = 1, so each g is valid for show and stochastic.
    POWER = {"fib": 1, "lucas": 1, "cfib2": 2, "cfib3": 3}
    G_TEMPLATES = (("{a}^{k}*{b}", lambda a, b, c, k: k * a + b),
                   ("{a}*{b}/{c}", lambda a, b, c, k: a + b - c),
                   ("{a}^{k}/{b}", lambda a, b, c, k: k * a - b),
                   ("sqrt({a}^2*{b}^2)/{c}", lambda a, b, c, k: a + b - c))
    F_TEMPLATES = (("z*{a}", lambda a, b, c, k: a),
                   ("z*{a}/{b}", lambda a, b, c, k: a - b),
                   ("z*{a}^{k}/{b}", lambda a, b, c, k: k * a - b),
                   ("z*sqrt({a}^2)*{b}/{c}", lambda a, b, c, k: a + b - c))

    def __init__(self, sizes: tuple[int, int] = SIZES):
        self.sizes = sizes

    def _expr(self, rng, templates, power: int) -> str:
        while True:
            template, net = rng.choice(templates)
            names = rng.sample(sorted(self.POWER), 3)
            k = rng.randint(2, 3)
            if net(*(self.POWER[x] for x in names), k) == power:
                return template.format(k=k, **dict(zip("abc", names)))

    def round_inputs(self, seed: int, r: int) -> list:
        rng = _rng(seed, self.name, r)
        small, large = self.sizes
        # three ops at the large size and one at the small size, commands
        # alternating by round: the median op sits inside the large class
        # instead of on the gap between the two
        first, second = ("show", "stochastic") if r % 2 else ("stochastic", "show")
        combos = [("show", large), ("stochastic", large), (first, large), (second, small)]
        out = []
        for cmd, n in rng.sample(combos, len(combos)):
            g = self._expr(rng, self.G_TEMPLATES, 3)
            fmt = rng.choice(self.FORMATS)
            args = [g, self._expr(rng, self.F_TEMPLATES, 1)] if cmd == "show" else [g]
            out.append([cmd, *args, "--order", str(n), "--rows", str(n), "--format", fmt])
        return out

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = riordan.cli.main(argv)
        return code, buf.getvalue()

    @staticmethod
    def parse_output(argv, text: str):
        """Rows and row sums (or None) as Fractions, from any output format."""
        fmt = argv[argv.index("--format") + 1]
        stochastic = argv[0] == "stochastic"
        if fmt == "json":
            payload = json.loads(text)
            rows = [[_number(c) for c in row] for row in payload["rows"]]
            sums = [Fraction(s) for s in payload["row_sums"]] if stochastic else None
            return rows, sums
        lines = text.splitlines()
        if fmt == "csv":
            cells = [line.split(",") for line in lines]
        else:
            cells = [line.split() for line in lines]
        if stochastic:
            sums = [Fraction(row[-1]) for row in cells]
            cells = [row[:-2] if fmt == "table" else row[:-1] for row in cells]
        else:
            sums = None
        rows = [[_number(c) for c in row[:n + 1]] for n, row in enumerate(cells)]
        return rows, sums

    def expected_rows(self, argv):
        """The triangle of the op's pair, expanded by the benchmark's own
        convolution (over the integers when every coefficient is one)."""
        n = int(argv[argv.index("--order") + 1])
        g = riordan.series_from_text(argv[1], n)
        if argv[0] == "stochastic":
            f = riordan.stochastic_from_g(g).f
        else:
            f = riordan.series_from_text(argv[2], n)
        gs, fs = list(g.coeffs), list(f.coeffs)
        if all(c.denominator == 1 for c in gs + fs):
            gs, fs = [int(c) for c in gs], [int(c) for c in fs]
        cols = [gs]
        for k in range(1, n):
            # column k-1 vanishes below row k-1, and f(0) = 0
            prev = cols[-1]
            cols.append([0] * k + [sum(prev[i] * fs[m - i] for i in range(k - 1, m))
                                   for m in range(k, n)])
        return [[cols[k][m] for k in range(m + 1)] for m in range(n)]

    def check(self, argv, out) -> bool:
        code, text = out
        if code != 0:
            return False
        try:
            rows, sums = self.parse_output(argv, text)
        except (ValueError, KeyError, IndexError, ZeroDivisionError):
            return False
        if rows != self.expected_rows(argv):
            return False
        if sums is not None:
            return all(s == 1 for s in sums) and all(sum(row) == 1 for row in rows)
        return True

    def digest(self, argv, out) -> str:
        code, text = out
        return f"{' '.join(argv)}\n{code}\n{text}"


class VerifyCli:
    """``riordan verify all`` in a fresh interpreter per op.

    The fixture recipes are lru_cached by order, so a repeat in one process
    would time cache hits.  The command has no seeded part: every op runs
    the same ten bundled fixtures.
    """

    name = "verify-cli"

    def __init__(self, round_size: int = 4):
        self.round_size = round_size
        self.peak_rss_kib = 0

    def round_inputs(self, seed: int, r: int) -> list:
        return [["verify", "all"]] * self.round_size

    def run(self, argv, launcher=None):
        """Returns (exit code, stdout); the child's peak RSS is kept in KiB."""
        cmd = [sys.executable, *(launcher or ["-m", "riordan.cli"]), *argv]
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                env=env, text=True)
        try:
            stdout = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        return proc.returncode, stdout

    def check(self, argv, out) -> bool:
        code, stdout = out
        return code == 0 and stdout.rstrip().endswith("10/10 fixtures passed")

    def digest(self, argv, out) -> str:
        code, stdout = out
        return f"{code}\n{stdout}"


WORKLOADS = {w.name: w for w in (ComposeHi, Triangles, SmallRandom, VerifyCli)}
