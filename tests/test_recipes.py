import json
import random
from pathlib import Path

import pytest

from quadring.errors import InputError
from quadring.gfp import PrimeField, enumerate_projective, legendre_character
from quadring.mpoly import HomPoly
from quadring.netfib import (
    cubic_fiber_grams,
    cubic_with_plane_counts,
    random_cubic_with_plane,
    random_verra_form,
    swap_verra_factors,
    validate_cubic_with_plane,
    validate_verra_form,
    verra_counts,
)
from quadring.netfib.recipes import PLANE_VARS, _gram_at

from _util import plane_cubic


GOLDEN = Path(__file__).parent / "data" / "golden"


def _monomial(*exps):
    return tuple(exps)


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
    grams = cubic_fiber_grams(cubic)
    for i in range(4):
        for j in range(4):
            assert grams[i][j] == grams[j][i]
    for i in range(3):
        for j in range(3):
            assert grams[i][j].degree == 1
        assert grams[i][3].degree == 2
    assert grams[3][3].degree == 3


def test_cubic_fiber_gram_matches_substitution():
    # v^T M(s) v must equal 2 * F(y, t*s) / t for random evaluations
    cubic = random_cubic_with_plane([5], seed=4)
    grams = cubic_fiber_grams(cubic)
    rng = random.Random(0)
    f11 = PrimeField(11)
    for _ in range(60):
        s = [rng.randrange(11) for _ in range(3)]
        if all(x == 0 for x in s):
            continue
        y = [rng.randrange(11) for _ in range(3)]
        t = rng.randrange(1, 11)
        gram = _gram_at(grams, s, f11)
        quad = gram.q(y + [t], f11)
        point = y + [t * si % 11 for si in s]
        full = cubic.evaluate(point, f11)
        assert full == t * pow(2, 9, 11) * quad % 11  # F = t * G, doubled Gram


def test_cubic_residual_zero_on_accepted_forms():
    cubic = random_cubic_with_plane([5, 7], seed=1)
    for report in cubic_with_plane_counts(cubic, [5, 7]):
        assert not report.corank2_found
        assert report.residual == 0


def test_cubic_residual_stable_across_primes():
    cubic = random_cubic_with_plane([5, 7, 11], seed=2)
    reports = cubic_with_plane_counts(cubic, [5, 7, 11])
    assert [r.residual for r in reports] == [0, 0, 0]


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
