import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from quadring.errors import InputError
from quadring import nslattice as ns

from _util import enumerate_nontrivial, least_pell_solution, oracle_verdict, sqrt_cf_convergents, two_period_walk_solutions


def test_discriminant_examples():
    assert ns.discriminant(3, -2) == 25  # rational normal cubic data
    assert ns.discriminant(0, 0) == 0
    assert ns.discriminant(1, -2) == 17


def test_brauer_parity():
    assert ns.brauer_vanishes(25)
    assert not ns.brauer_vanishes(24)
    assert ns.brauer_vanishes(17)


def test_solve_examples():
    assert ns.solve_pell_like(17, 8) == (5, 1)
    assert ns.solve_pell_like(9, -8) == (1, 1)
    assert ns.solve_pell_like(25, 8) is None
    assert ns.solve_pell_like(25, -8) is None


def test_solve_validation():
    with pytest.raises(InputError):
        ns.solve_pell_like(0, 8)
    with pytest.raises(InputError):
        ns.solve_pell_like(-4, 8)
    with pytest.raises(InputError):
        ns.solve_pell_like(10, 7)


def test_returned_solutions_satisfy_equation():
    for d in range(1, 300):
        for rhs in (8, -8):
            sol = ns.solve_pell_like(d, rhs)
            if sol is not None:
                a, b = sol
                assert a * a - d * b * b == rhs


def test_oracle_agreement_small_range():
    # bounded scan as the oracle (acceptance re-runs d <= 500, b <= 10^4):
    # agreement is required inside the scan range, and any solution beyond
    # it must check out exactly while nothing smaller exists
    bound = 2000
    for d in range(1, 121):
        for rhs in (8, -8):
            brute = None
            for b in range(0, bound + 1):
                r = rhs + d * b * b
                if r < 0:
                    continue
                a = math.isqrt(r)
                if a * a == r:
                    brute = (a, b)
                    break
            got = ns.solve_pell_like(d, rhs)
            if got is None:
                assert brute is None
            else:
                a, b = got
                assert a * a - d * b * b == rhs
                if b <= bound:
                    assert got == brute
                else:
                    assert brute is None


def test_fundamental_unit_values():
    assert ns.pell_fundamental(2) == (3, 2)
    assert ns.pell_fundamental(61) == (1766319049, 226153980)


def test_classification_examples():
    assert ns.classify_discriminant(25).classification == ns.NONTRIVIAL
    assert ns.classify_discriminant(17).classification == ns.ISOMORPHIC
    assert ns.classify_discriminant(9).classification == ns.ISOMORPHIC
    assert ns.classify_discriminant(4).classification == ns.OBSTRUCTED
    assert ns.classify_discriminant(20).classification == ns.OBSTRUCTED
    # 12 = 4 mod 8 but 2^2 - 12 = -8 is solvable, so the isomorphism
    # criterion takes precedence over the parity test
    v12 = ns.classify_discriminant(12)
    assert v12.classification == ns.ISOMORPHIC
    assert v12.solution == (2, 1, -8)


def test_verdict_solutions_exact():
    for d in (9, 17, 12, 33, 41):
        v = ns.classify_discriminant(d)
        if v.solution:
            a, b, rhs = v.solution
            assert a * a - d * b * b == rhs


def test_enumerate_nontrivial():
    out = enumerate_nontrivial(100)
    assert set(out) >= {25, 49, 81}  # odd squares above 9
    assert 9 not in out  # (1, 1) solves the -8 equation
    assert all(d % 8 == 1 for d in out)
    assert out == sorted(out)
    assert enumerate_nontrivial(9) == []
    with pytest.raises(InputError):
        enumerate_nontrivial(0)


def test_odd_squares_above_nine_unsolvable():
    for e in range(5, 41, 2):
        d = e * e
        assert ns.solve_pell_like(d, 8) is None
        assert ns.solve_pell_like(d, -8) is None
        assert d % 8 == 1  # parity consistency of the two criteria


def test_even_curve_degree_never_nontrivial():
    # CH even forces d = 0 or 4 mod 8, so the obstruction never vanishes and
    # the verdict cannot be nontrivially-L-equivalent
    for ch in range(-6, 7, 2):
        for c2 in range(-6, 3):
            d = ns.discriminant(ch, c2)
            if d < 1:
                continue
            assert d % 8 in (0, 4)
            verdict = ns.classify_discriminant(d)
            assert verdict.classification != ns.NONTRIVIAL


def test_classify_ns_matches_discriminant():
    v = ns.classify_ns(3, -2)
    assert v.d == 25 and v.classification == ns.NONTRIVIAL


def test_convergent_values_come_from_the_pqa_denominators():
    # one period of (P, Q) and its convergents give every convergent and
    # value of the two-period walk, each value p^2 - d q^2 by its product
    for d in list(range(2, 400)) + [61, 94, 421, 9_999, 999_999]:
        if math.isqrt(d) ** 2 == d:
            continue
        walk = list(sqrt_cf_convergents(d))
        assert all(p * p - d * q * q == v for p, q, v in walk)
        assert sum(v == 1 for _, _, v in walk) >= 1
        period, _ = ns._pqa_period(d, 2_000_000)
        denominators = [q for _, q in itertools.islice(ns._pqa(d), 2 * period)]
        assert denominators[period - 1] == 1 and denominators[:period] == denominators[period:]
        head = denominators[: period - 1]
        assert head == head[::-1]  # the solver's one-period argument
        assert walk == [
            (*ns._convergent(d, k), (-1) ** (k + 1) * denominators[k % period]) for k in range(len(walk))
        ]
        assert ns.pell_fundamental(d) == next((p, q) for p, q, v in walk if v == 1)


def test_one_period_walk_matches_the_two_period_walk_up_to_20000():
    # the walk of (P, Q) that stops after one period, with the sign-flipped
    # twins of an odd period, finds the first hits of the two-period walk
    for d in range(65, 20_001):
        if math.isqrt(d) ** 2 != d:
            assert ns._solve_by_convergents(d, 2_000_000) == two_period_walk_solutions(d), d


def test_classification_matches_the_two_period_oracle_up_to_20000():
    for d in range(1, 20_001):
        v = ns.classify_discriminant(d)
        assert (v.classification, v.solution) == oracle_verdict(d), d


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=10**6))
@example(61)
@example(999_999)
@example(994_009)  # 997^2
def test_one_walk_solutions_are_the_least_certified_witnesses(d):
    verdict = ns.classify_discriminant(d)
    for rhs in ns.ALLOWED_RHS:
        got = ns.solve_pell_like(d, rhs)
        assert got == least_pell_solution(d, rhs)
        if got is not None:
            a, b = got
            assert a * a - d * b * b == rhs
    if verdict.solution is not None:
        a, b, rhs = verdict.solution
        assert a * a - d * b * b == rhs
