"""Acceptance suite: every gate criterion at zero tolerance.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s`` to
see them on success).  All comparisons are exact rational equality.
"""

import contextlib
import dataclasses
import random
from fractions import Fraction

from riordan import (
    RiordanPair,
    TruncSeries,
    az_from_production,
    az_from_series,
    extract_az,
    family_from_f,
    g_subgroup_inv,
    g_subgroup_mul,
    named_series,
    power_pseudo,
    pseudo_from_g,
    recurrence_check,
    stochastic_from_g,
    subgroup_element,
)
from riordan import cli
from riordan.fixtures import all_fixtures, fixture_by_id, matrix

from conftest import (
    mat_vec,
    random_admissible_f,
    random_proper_pair,
    random_pseudo_involution,
    random_series,
    tri_product,
)

ORDER = 32


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    print(f"criterion {number:2d}: PASS  {description}")


def verify_cli(fixture_id: str) -> int:
    return cli.main(["verify", fixture_id])


def rows_as_ints(pair: RiordanPair, rows: int):
    return [[int(c) for c in row] for row in pair.expand(rows).rows]


def fracs(texts):
    return tuple(Fraction(t) for t in texts)


def test_criterion_1_pascal_inverse(capsys):
    with criterion(1, "verify pascal-inverse reproduces the alternating binomials"):
        assert verify_cli("pascal-inverse") == 0
        one = TruncSeries.one(ORDER)
        z = TruncSeries.z(ORDER)
        inv = RiordanPair(1 / (one - z), z / (one - z)).inverse()
        assert rows_as_ints(inv, 7)[6] == [1, -6, 15, -20, 15, -6, 1]


def test_criterion_2_stochastic_lucas_array(capsys):
    with criterion(2, "verify stochastic-lucas-array rows and 32 unit row sums"):
        assert verify_cli("stochastic-lucas-array") == 0
        pair = stochastic_from_g(named_series("lucas", ORDER))
        assert rows_as_ints(pair, 10)[9] == [76, -245, 317, -195, 48, 0, 0, 0, 0, 0]
        assert all(s == 1 for s in pair.expand(32).row_sums())


def test_criterion_3_stochastic_lucas_matrix(capsys):
    with criterion(3, "verify stochastic-lucas-matrix rows and exact A/Z"):
        assert verify_cli("stochastic-lucas-matrix") == 0
        g = TruncSeries.polynomial([1, 2], ORDER) / TruncSeries.polynomial([1, -1, -1], ORDER)
        pair = stochastic_from_g(g)
        assert rows_as_ints(pair, 10)[9] == [123, -718, 2153, -4298, 6303, -7002,
                                             6032, -3872, 1792, -512]
        report = extract_az(pair, 8)
        assert report.z_seq == fracs(["3", "5/2", "25/8", "25/8", "375/128",
                                      "375/128", "3125/1024", "3125/1024"])
        assert report.a_seq == fracs(["-2", "1/2", "-5/8", "0", "25/128", "0",
                                      "-125/1024", "0"])


def test_criterion_4_lucas_pi(capsys):
    with criterion(4, "verify lucas-pi rows, pseudo-involution at 16, A/Z"):
        assert verify_cli("lucas-pi") == 0
        pair = pseudo_from_g(named_series("lucas", ORDER))
        assert rows_as_ints(pair, 9)[8] == [47, 967294, 447998, 136436, 30792,
                                            5054, 558, 36, 1]
        assert pair.is_pseudo_involution(16)
        report = extract_az(pair, 8)
        assert report.z_seq == fracs(["1", "2", "-11", "58", "-384", "2872",
                                      "-23416", "201608"])
        assert report.a_seq == fracs(["1", "5", "0", "45", "-225", "1980",
                                      "-16200", "142920"])


def test_criterion_5_cfib2_pi(capsys):
    with criterion(5, "verify cfib2-pi rows, column 0, A/Z"):
        assert verify_cli("cfib2-pi") == 0
        pair = power_pseudo(pseudo_from_g(named_series("fib", ORDER)), 2)
        tri = pair.expand(9)
        assert [int(c) for c in tri.column(0)] == [1, 2, 5, 10, 20, 38, 71, 130, 235]
        report = extract_az(pair, 8)
        assert report.z_seq == fracs(["2", "1", "-5", "20", "-77", "308",
                                      "-1303", "5805"])
        assert report.a_seq == fracs(["1", "3", "0", "5", "-15", "70",
                                      "-310", "1455"])


def test_criterion_6_fib_f_family(capsys):
    with criterion(6, "verify fib-f-family: four matrices, pseudo checks, shared A"):
        assert verify_cli("fib-f-family") == 0
        f = pseudo_from_g(named_series("fib", ORDER)).f
        members = family_from_f(f)
        hitting = members[3]
        assert rows_as_ints(hitting, 10)[9] == [906693, 496809, 248157, 108486,
                                                39348, 11151, 2313, 324, 27, 1]
        from riordan import a_sequence
        prefixes = []
        for member in members:
            assert member.is_pseudo_involution(16)
            prefixes.append(a_sequence(member, 8))
        assert len(set(prefixes)) == 1


def test_criterion_7_pascal_partner_sanity(capsys):
    with criterion(7, "pseudo-involution partner of 1/(1-z) equals z/(1-z) to 32"):
        one = TruncSeries.one(32)
        z = TruncSeries.z(32)
        f = pseudo_from_g(1 / (one - z)).f
        assert f.order == 32
        assert f == z / (one - z)


# ---- criterion 8: randomized property suite ----

P_ORDER = 16
CASES_PER_PROPERTY = 125  # 8 properties x 125 cases = 1000 randomized cases


def _prop_group_law(rng):
    left = random_proper_pair(rng, P_ORDER)
    right = random_proper_pair(rng, P_ORDER)
    direct = (left * right).expand(8).rows
    oracle = tri_product(left.expand(8).rows, right.expand(8).rows)
    assert [list(r) for r in direct] == oracle


def _prop_inverse_law(rng):
    pair = random_proper_pair(rng, P_ORDER)
    assert pair * pair.inverse() == RiordanPair.identity(P_ORDER)


def _prop_mam_is_inverse(rng):
    pair = random_pseudo_involution(rng, P_ORDER)
    mam = pair.mam_conjugate()
    inv = pair.inverse()
    assert mam.g.matches(inv.g)
    assert mam.f.matches(inv.f)


def _prop_apply_is_mat_vec(rng):
    pair = random_proper_pair(rng, P_ORDER)
    h = random_series(rng, P_ORDER)
    out = pair.apply(h)
    assert list(out.coeffs[:8]) == mat_vec(pair.expand(8).rows, list(h.coeffs))


def _prop_az_routes_agree(rng):
    pair = random_proper_pair(rng, P_ORDER, g1_nonzero=True)
    s = az_from_series(pair, 8)
    p = az_from_production(pair, 8)
    assert s.a_seq == p.a_seq
    assert s.z_seq == p.z_seq


def _prop_recurrence(rng):
    pair = random_proper_pair(rng, P_ORDER, g1_nonzero=True)
    report = extract_az(pair, 8)
    assert recurrence_check(pair, report, 8)


def _prop_reverse_round_trip(rng):
    f = random_admissible_f(rng, P_ORDER)
    fbar = f.reverse()
    z = TruncSeries.z(P_ORDER)
    assert f.compose(fbar) == z
    assert fbar.compose(f) == z


def _prop_sqrt_squares_back(rng):
    t = random_series(rng, P_ORDER)
    if t.coeffs[0] == 0:
        t = t + 1 + abs(t.coeffs[0])
    square = t * t
    root = square.sqrt()
    assert root * root == square
    assert root.coeffs[0] > 0


def test_criterion_8_property_suite(capsys):
    properties = (
        ("group law vs matrix product", _prop_group_law),
        ("inverse law", _prop_inverse_law),
        ("MAM equals inverse on pseudo-involutions", _prop_mam_is_inverse),
        ("apply equals matrix-vector product", _prop_apply_is_mat_vec),
        ("A/Z extraction routes agree", _prop_az_routes_agree),
        ("recurrence replay", _prop_recurrence),
        ("reversion round trip", _prop_reverse_round_trip),
        ("square root squares back", _prop_sqrt_squares_back),
    )
    total = len(properties) * CASES_PER_PROPERTY
    with criterion(8, f"property suite, {total} randomized cases at order {P_ORDER}"):
        rng = random.Random(20260810)
        for name, prop in properties:
            for case in range(CASES_PER_PROPERTY):
                try:
                    prop(rng)
                except AssertionError as err:
                    raise AssertionError(f"{name}, case {case}: {err}") from err


def test_criterion_9_subgroup_closure(capsys):
    with criterion(9, "50 random products/inverses/powers stay pseudo-involutions"):
        wide_f = pseudo_from_g(named_series("fib", 20)).f
        generators = [member.g.truncate(17) for member in family_from_f(wide_f)]
        f = wide_f.truncate(17)
        rng = random.Random(97)
        pool = list(generators)
        for _ in range(50):
            op = rng.choice(("mul", "inv", "pow"))
            if op == "mul":
                g1, g2 = rng.choice(pool), rng.choice(pool)
                result = g_subgroup_mul(g1, g2, f)
            elif op == "inv":
                result = g_subgroup_inv(rng.choice(pool), f)
            else:
                base = rng.choice(pool)
                result = power_pseudo(RiordanPair(base, f), rng.randint(2, 3))
            assert result.is_pseudo_involution(16)
            pool.append(result.g)


def test_criterion_10_negative_controls(capsys):
    with criterion(10, "negative controls reject; tampering trips verify"):
        one = TruncSeries.one(ORDER)
        z = TruncSeries.z(ORDER)
        assert not RiordanPair(1 / (one - z), z).is_pseudo_involution(16)
        fib = named_series("fib", ORDER)
        assert not RiordanPair(fib, z * fib).is_pseudo_involution(16)

        # tamper one entry in every fixture that carries a matrix and make
        # sure verify fails with that entry's coordinates and both values
        rng = random.Random(5)
        originals = {f.id: f for f in all_fixtures()}
        for fixture_id, fixture in originals.items():
            matrix_checks = [c for c in fixture.checks if c.compare is matrix]
            if not matrix_checks:
                continue
            target = rng.choice(matrix_checks)
            n = rng.randrange(len(target.reference))
            k = rng.randrange(len(target.reference[n]))
            rows = [list(r) for r in target.reference]
            rows[n][k] += 1
            bad_check = dataclasses.replace(target, reference=tuple(tuple(r) for r in rows))
            bad = dataclasses.replace(
                fixture,
                checks=tuple(bad_check if c is target else c for c in fixture.checks),
            )
            original_by_id = cli.fixture_by_id
            cli.fixture_by_id = lambda _fid, _bad=bad: _bad
            try:
                code = cli.main(["verify", fixture_id])
            finally:
                cli.fixture_by_id = original_by_id
            assert code == 1
            captured = capsys.readouterr()
            assert f"entry ({n},{k}): expected {rows[n][k]}, computed " \
                   f"{rows[n][k] - 1}" in captured.out
