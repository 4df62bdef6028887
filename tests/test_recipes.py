import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quadring.errors import BudgetExceededError, InputError
from quadring.gfp import PrimeField, enumerate_projective, inverse, projective_size
from quadring.mpoly import HomPoly, evaluate_on_array
from quadring.quadform import GramMatrix
from quadring.netfib import (
    cubic_fiber_grams,
    cubic_with_plane_counts,
    random_cubic_with_plane,
    random_verra_form,
    validate_cubic_with_plane,
    validate_verra_form,
    verra_counts,
)
from quadring.netfib.recipes import PLANE_VARS, _fiber_grams, _verra_fibrations

from _util import fiber_list, legendre_character, plane_cubic, projective_rows_where, swap_verra_factors


GOLDEN = Path(__file__).parent / "data" / "golden"


def _monomial(*exps):
    return tuple(exps)


def _golden_cubic():
    doc = json.loads((GOLDEN / "cubic_form.json").read_text())
    return HomPoly(doc["num_vars"], doc["degree"], {tuple(e): c for e, c in doc["terms"]})


def _golden_verra_form():
    from quadring.cli import load_verra_form

    return load_verra_form(str(GOLDEN / "verra_form.json"))


def _plane_singular_points(cubic, field):
    """F_p-points of P^2 where the conics of x3, x4 and x5 vanish together,
    by a pointwise loop."""
    conics = [
        HomPoly(3, 2, {e[:3]: c for e, c in cubic.terms.items() if e[k] == 1 and sum(e[3:]) == 1})
        for k in PLANE_VARS
    ]
    return sum(
        all(conic.evaluate(y, field) == 0 for conic in conics)
        for y in enumerate_projective(2, field)
    )


def test_validate_cubic_plane_containment():
    inside = HomPoly(6, 3, {_monomial(2, 0, 0, 1, 0, 0): 1})
    validate_cubic_with_plane(inside)
    outside = HomPoly(6, 3, {_monomial(3, 0, 0, 0, 0, 0): 1})
    with pytest.raises(InputError):
        validate_cubic_with_plane(outside)


def test_cubic_fiber_gram_degrees_and_symmetry():
    cubic = random_cubic_with_plane([5], seed=4)
    fibration = cubic_fiber_grams(cubic)
    for e, gram in fibration.items():
        for i in range(4):
            for j in range(4):
                assert gram[i][j] == gram[j][i]
                if gram[i][j]:
                    assert sum(e) == 1 + (i == 3) + (j == 3)
    # every block of the fiber Gram is reached: degree 1 on yy, 2 on yt, 3 at tt
    blocks = {(i == 3, j == 3) for gram in fibration.values() for i in range(4) for j in range(4) if gram[i][j]}
    assert blocks == {(False, False), (False, True), (True, False), (True, True)}


def _gram_at(fibration, s, field):
    """The fiber Gram over s, sum s^e G_e by one power per base variable."""
    p = field.p

    def monomial(e):
        value = 1
        for x, k in zip(s, e):
            value = value * pow(x, k, p) % p
        return value

    return GramMatrix(
        tuple(
            tuple(sum(monomial(e) * gram[i][j] for e, gram in fibration.items()) % p for j in range(4))
            for i in range(4)
        )
    )


@pytest.mark.parametrize("p", [5, 7])
def test_fiber_grams_match_pointwise_evaluation(p):
    field = PrimeField(p)
    for fibration in (
        cubic_fiber_grams(random_cubic_with_plane([5], seed=4)),
        *_verra_fibrations(_golden_verra_form()),
    ):
        pointwise = [(s, _gram_at(fibration, s, field)) for s in enumerate_projective(2, field)]
        assert fiber_list(_fiber_grams(fibration, field)) == pointwise


def test_cubic_fiber_gram_matches_substitution():
    # v^T M(s) v must equal 2 * F(y, t*s) / t for random evaluations
    cubic = random_cubic_with_plane([5], seed=4)
    fibration = cubic_fiber_grams(cubic)
    rng = random.Random(0)
    f11 = PrimeField(11)
    for _ in range(60):
        s = [rng.randrange(11) for _ in range(3)]
        if all(x == 0 for x in s):
            continue
        y = [rng.randrange(11) for _ in range(3)]
        t = rng.randrange(1, 11)
        gram = _gram_at(fibration, s, f11)
        quad = gram.q(y + [t], f11)
        point = y + [t * si % 11 for si in s]
        full = cubic.evaluate(point, f11)
        assert full == t * pow(2, 9, 11) * quad % 11  # F = t * G, doubled Gram


def _monomials(num_vars, degree):
    """Every exponent vector of the given degree, in sorted order."""
    if num_vars == 1:
        return [(degree,)]
    return [(k,) + rest for k in range(degree + 1) for rest in _monomials(num_vars - 1, degree - k)]


# coefficients mod p of any size, so that the fibrations' integer Grams are
# reduced like the forms
COEFFS = st.integers(-5, 5) | st.sampled_from([2**70, -(2**70) + 1])
CUBICS_THROUGH_THE_PLANE = st.dictionaries(
    st.sampled_from([e for e in _monomials(6, 3) if sum(e[3:])]), COEFFS, min_size=1
).filter(lambda terms: any(terms.values())).map(lambda terms: HomPoly(6, 3, terms))
VERRA_FORMS = st.dictionaries(
    st.sampled_from([a + b for a in _monomials(3, 2) for b in _monomials(3, 2)]), COEFFS, min_size=1
).filter(lambda terms: any(terms.values())).map(lambda terms: HomPoly(6, 4, terms))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    cubic=CUBICS_THROUGH_THE_PLANE,
    p=st.sampled_from([3, 5, 7]),
    vectors=st.lists(st.tuples(*[st.integers(0, 6)] * 3, st.integers(1, 6)), min_size=1, max_size=3),
)
def test_cubic_fibration_is_the_cubic_divided_by_t(cubic, p, vectors):
    # oracle, by HomPoly.evaluate: v^T G(s) v = 2 F(y, t s) / t at v = (y, t)
    # with t != 0, which fixes a quadratic form on F_p^4 for odd p; the
    # degrees in s are 1 on the yy block, 2 on the yt border and 3 at tt
    field = PrimeField(p)
    fibration = cubic_fiber_grams(cubic)
    for e, gram in fibration.items():
        assert all((i == 3) + (j == 3) == sum(e) - 1 for i in range(4) for j in range(4) if gram[i][j])
    for s, gram in fiber_list(_fiber_grams(fibration, field)):
        for *y, t in vectors:
            t = t % (p - 1) + 1
            expected = 2 * cubic.evaluate(y + [t * x for x in s], field) * inverse(t, p) % p
            assert gram.q(y + [t], field) == expected


@settings(max_examples=40, deadline=None, derandomize=True)
@given(form=VERRA_FORMS, p=st.sampled_from([3, 5, 7]))
def test_verra_fibrations_are_w_squared_minus_the_form(form, p):
    # oracle, by HomPoly.evaluate: the fiber over s of the first fibration is
    # diag(2) + -2 Gram_t(G(s, .)), the doubled Gram read by polarizing G(s, .);
    # the second fibration is the first of the form with its factors swapped
    field = PrimeField(p)
    first, second = _verra_fibrations(form)
    assert second == _verra_fibrations(swap_verra_factors(form))[0]
    units = [[int(i == j) for j in range(3)] for i in range(3)]
    for s, gram in fiber_list(_fiber_grams(first, field)):
        def g(t):
            return form.evaluate(list(s) + t)

        doubled = [[g([a + b for a, b in zip(u, v)]) - g(u) - g(v) for v in units] for u in units]
        expected = [[2, 0, 0, 0]] + [[0] + [-x % p for x in row] for row in doubled]
        assert gram == GramMatrix.from_rows(expected)


@pytest.mark.parametrize("seed", [42, 1, 2, 3, 4])
def test_the_benchmark_seeds_draw_the_recorded_cubic_and_form(seed):
    # the draws of the benchmark's set-up seeds at its cubic and (2,2) primes,
    # recorded while the recipes' Grams were polynomial entries: a change to
    # the searches' acceptance shows here, not only in the benchmark
    doc = json.loads((GOLDEN / "seeded_draws.json").read_text())
    cubic = random_cubic_with_plane(doc["cubic_primes"], seed=seed)
    form = random_verra_form(doc["verra_primes"], seed=seed)
    assert cubic.terms == {tuple(e): c for e, c in doc["cubic"][str(seed)]}
    assert form.terms == {tuple(e): c for e, c in doc["verra"][str(seed)]}


def test_cubic_residual_zero_on_accepted_forms():
    cubic = random_cubic_with_plane([5, 7], seed=1)
    for report in cubic_with_plane_counts(cubic, [5, 7]):
        assert not report.corank2_found
        assert report.residual == 0


def test_cubic_residual_stable_across_primes():
    cubic = random_cubic_with_plane([5, 7, 11], seed=2)
    reports = cubic_with_plane_counts(cubic, [5, 7, 11])
    assert [r.residual for r in reports] == [0, 0, 0]


def _without(cubic, *monomials):
    return HomPoly(6, 3, {e: c for e, c in cubic.terms.items() if e not in monomials})


CUBICS_FOR_X = {
    "golden": lambda: _golden_cubic(),
    # no x2^2 term: A = 0 everywhere, so x2 solves a linear equation
    "no_x2_squared": lambda: _without(plane_cubic(3, 1), (0, 0, 2, 1, 0, 0), (0, 0, 2, 0, 1, 0), (0, 0, 2, 0, 0, 1)),
    # no x2^2 x3, x2 x3^2, x3^3: A, B and C vanish together at u = e3, off
    # the plane, so the line through e2 and e3 lies on X
    "line_through_e3": lambda: _without(plane_cubic(4, 1), (0, 0, 2, 1, 0, 0), (0, 0, 1, 2, 0, 0), (0, 0, 0, 3, 0, 0)),
}


@pytest.mark.parametrize("p", [3, 5, 7, 13])
@pytest.mark.parametrize("kind", sorted(CUBICS_FOR_X))
def test_cubic_x_count_matches_brute_force(kind, p):
    # oracle: the cubic evaluated at every point of P^5
    cubic, field = CUBICS_FOR_X[kind](), PrimeField(p)
    zeros = projective_rows_where(5, field, lambda rows: evaluate_on_array(cubic, rows, field) == 0, budget=10**6)
    assert cubic_with_plane_counts(cubic, [p], budget=projective_size(4, p))[0].x_count == len(zeros)
    with pytest.raises(BudgetExceededError):
        cubic_with_plane_counts(cubic, [p], budget=projective_size(4, p) - 1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    x0_squared=st.integers(-2, 2),
    drop=st.sampled_from([0, 1, 3]),
    p=st.sampled_from([3, 5, 7]),
)
def test_random_cubic_x_counts_match_brute_force(seed, x0_squared, drop, p):
    # random cubics through the plane with the first `drop` terms of the
    # x2^2 coefficient A removed (all three: A = 0); the plane itself is
    # where A, B and C vanish together for every cubic
    cubic = _without(plane_cubic(seed, x0_squared), *[(0, 0, 2, *e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))][:drop])
    field = PrimeField(p)
    zeros = projective_rows_where(5, field, lambda rows: evaluate_on_array(cubic, rows, field) == 0)
    assert cubic_with_plane_counts(cubic, [p])[0].x_count == len(zeros)


def test_cubic_degenerate_flags_corank():
    # x3 * (smooth quadric) is reducible: the fiber over s3 = 0 is the zero
    # quadric, so the corank flag must fire
    smooth_quadric = HomPoly(
        6, 2, {tuple(2 if k == i else 0 for k in range(6)): 1 for i in range(6)}
    )
    cubic = HomPoly.variable(6, 3) * smooth_quadric
    reports = cubic_with_plane_counts(cubic, [5])
    assert reports[0].corank2_found


def test_cubic_singular_along_the_plane_is_flagged():
    # no x0^2 term: singular at (1:0:0) at every prime.  Each singular
    # F_p-point of the plane moves the residual by -p^2, and the report
    # names the broken hypothesis at every prime
    cubic = plane_cubic(seed=0, x0_squared=0)
    for report in cubic_with_plane_counts(cubic, [5, 7, 11]):
        field = PrimeField(report.p)
        singular = _plane_singular_points(cubic, field)
        assert singular >= 1
        assert report.singular_on_plane and not report.corank2_found
        assert report.residual == -report.p**2 * singular
        assert report.to_document()["flags"]["singular_on_plane"] is True


def test_verra_validation():
    with pytest.raises(InputError):
        validate_verra_form(HomPoly(6, 4, {_monomial(4, 0, 0, 0, 0, 0): 1}))
    g = HomPoly(6, 4, {_monomial(2, 0, 0, 0, 2, 0): 1})
    validate_verra_form(g)


def test_verra_symmetric_form_has_equal_covers():
    # G symmetric under swapping the factors makes the two covers equal
    rng = random.Random(6)
    terms = {}
    for i in range(3):
        for j in range(i, 3):
            for k in range(3):
                for l in range(k, 3):
                    c = rng.randint(-3, 3)
                    if c == 0:
                        continue
                    e1 = [0] * 6
                    e1[i] += 1
                    e1[j] += 1
                    e1[3 + k] += 1
                    e1[3 + l] += 1
                    e2 = [0] * 6
                    e2[k] += 1
                    e2[l] += 1
                    e2[3 + i] += 1
                    e2[3 + j] += 1
                    terms[tuple(e1)] = terms.get(tuple(e1), 0) + c
                    terms[tuple(e2)] = terms.get(tuple(e2), 0) + c
    g = HomPoly(6, 4, {e: c for e, c in terms.items() if c})
    assert swap_verra_factors(g) == g
    for report in verra_counts(g, [3, 5]):
        assert report.y1_count == report.y2_count


def test_verra_accepted_forms_residuals_zero():
    g = random_verra_form([3, 5, 7], seed=1)
    for report in verra_counts(g, [3, 5, 7]):
        assert not (report.corank2_first or report.corank2_second)
        assert report.residual_first == 0
        assert report.residual_second == 0
        assert report.y_difference == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_verra_x_count_matches_pointwise_sum(p):
    # oracle: sum 1 + chi(G(s, t)) over P^2 x P^2 one point pair at a time
    field = PrimeField(p)
    for g in (random_verra_form([5], seed=2), _golden_verra_form()):
        expected = sum(
            1 + legendre_character(g.evaluate(s + t, field), field)
            for s in enumerate_projective(2, field)
            for t in enumerate_projective(2, field)
        )
        assert verra_counts(g, [p])[0].x_count == expected


def test_verra_asymmetric_form_still_balances():
    g = random_verra_form([5], seed=2)
    assert swap_verra_factors(g) != g  # genuinely asymmetric instance
    report = verra_counts(g, [5])[0]
    assert report.y_difference == 0


@pytest.mark.parametrize("seed", [8, 10, 11])
def test_cubic_search_is_smooth_along_the_plane(seed):
    # these seeds drew cubics singular at F_p-points of the plane before the
    # search tested the plane conics; each such point gave residual -p^2
    primes = (5, 7, 11, 13)
    cubic = random_cubic_with_plane(primes, seed=seed)
    reports = cubic_with_plane_counts(cubic, primes)
    assert [r.residual for r in reports] == [0, 0, 0, 0]
    assert not any(r.corank2_found for r in reports)


def test_cubic_search_seed_42_unchanged():
    # the benchmark's seed-42 cubic was smooth along the plane on its first
    # accepted draw, so the plane test leaves it as it was
    doc = json.loads((GOLDEN / "cubic_form.json").read_text())
    expected = {tuple(e): c for e, c in doc["terms"]}
    assert random_cubic_with_plane((5, 7, 11, 13), seed=42).terms == expected
