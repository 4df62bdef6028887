import random

import pytest

from quadring.errors import InputError
from quadring.grothring import (
    DERIVATION_NAMES,
    GRExpr,
    L,
    ONE,
    derive,
    rule_blowup,
    rule_family_total,
    rule_hyperbolic_reduction,
)

X = GRExpr.atom("X")
Y = GRExpr.atom("Y")


def _random_expr(rng: random.Random, atoms=("A", "B", "C"), depth=6) -> GRExpr:
    expr = GRExpr.const(rng.randint(-3, 3))
    for _ in range(depth):
        piece = GRExpr.atom(rng.choice(atoms)) * GRExpr.lpower(
            rng.randrange(3), rng.randint(-2, 2)
        )
        expr = expr + piece if rng.random() < 0.7 else expr * piece
    return expr


def test_projective_space_normalization():
    p1 = GRExpr.proj_space(1)
    assert p1 * p1 == GRExpr({(): {0: 1, 1: 2, 2: 1}})  # 1 + 2L + L^2
    assert X * ONE == X
    assert (X - Y) * L == GRExpr({("X",): {1: 1}, ("Y",): {1: -1}})


def test_proj_product_closed_form():
    for a in range(4):
        for b in range(4):
            prod = GRExpr.proj_space(a) * GRExpr.proj_space(b)
            expected = GRExpr()
            for i in range(a + 1):
                for j in range(b + 1):
                    expected = expected + GRExpr.lpower(i + j)
            assert prod == expected


@pytest.mark.parametrize("seed", range(5))
def test_ring_laws(seed):
    rng = random.Random(seed)
    e1, e2, e3 = (_random_expr(rng) for _ in range(3))
    assert e1 + e2 == e2 + e1
    assert e1 * e2 == e2 * e1
    assert (e1 + e2) + e3 == e1 + (e2 + e3)
    assert (e1 * e2) * e3 == e1 * (e2 * e3)
    assert e1 * (e2 + e3) == e1 * e2 + e1 * e3
    assert (e1 - e1).is_zero()


def test_evaluate():
    expr = (X + L) * X
    rng = random.Random(4)
    for _ in range(20):
        lv = rng.randint(-5, 5)
        xv = rng.randint(-5, 5)
        assert expr.evaluate(lv, {"X": xv}) == (xv + lv) * xv
    with pytest.raises(InputError):
        expr.evaluate(2, {})


def test_rule_blowup():
    assert rule_blowup(X, Y, 1) == X  # empty correction
    xprime = GRExpr.atom("Xprime")
    assert rule_blowup(GRExpr.proj_space(4), xprime, 2) == GRExpr.proj_space(4) + xprime * L
    assert rule_blowup(X, ONE, 2) == X + L  # point on a surface
    # theorem-main's route A: P^4 blown up in X blown up in a point
    assert rule_blowup(GRExpr.proj_space(4), rule_blowup(X, ONE, 2), 2) == GRExpr.proj_space(4) + (X + L) * L
    with pytest.raises(InputError):
        rule_blowup(X, Y, 0)


def test_rule_hyperbolic_reduction():
    qbar = GRExpr.atom("Qbar")
    assert rule_hyperbolic_reduction(GRExpr.proj_space(2), 4, 0, qbar) == GRExpr.proj_space(2) * (ONE + GRExpr.lpower(4)) + qbar * L
    # maximal isotropic subspace of an even quadric: [Q] = [P^n] + L^(n/2)
    assert rule_hyperbolic_reduction(ONE, 4, 2, GRExpr()) == GRExpr.proj_space(4) + GRExpr.lpower(2)
    s, cover = GRExpr.atom("S"), GRExpr.atom("Scover")
    assert rule_hyperbolic_reduction(s, 2, 0, cover) == s * (ONE + GRExpr.lpower(2)) + cover * L


def test_rule_family_total():
    assert rule_family_total(X, 2, 1) == GRExpr.proj_space(3) + X * L
    assert rule_family_total(X, 4, 2) == GRExpr.proj_space(5) * GRExpr.proj_space(1) + X * L**2
    with pytest.raises(InputError):
        rule_family_total(X, 4, 0)


def test_derivations_match_statements():
    expected = {
        "theorem-main": (X - Y) * L,
        "corollary-m1": (X - Y) * L,
        "corollary-m2": (X - Y) * L**2,
        "cubic-plane": X - (ONE + GRExpr.lpower(2) + GRExpr.lpower(4)) - Y * L,
        "verra": (GRExpr.atom("Y1") - GRExpr.atom("Y2")) * L,
        "pfaffian-statement-check": (X - Y) * L**6,
    }
    assert set(DERIVATION_NAMES) == set(expected)
    for name, statement in expected.items():
        d = derive(name)
        assert d.residual == statement
        assert d.consistent()
        assert d.after_hypothesis.is_zero()


def test_no_l_cancellation():
    d = derive("theorem-main")
    assert d.residual != X - Y
    assert not d.residual.is_zero()
    assert derive("pfaffian-statement-check").residual != (X - Y) * L
    with pytest.raises(InputError):
        GRExpr.lpower(-1)


def test_unknown_identity_rejected():
    with pytest.raises(InputError):
        derive("theorem-mian")


def test_render_stable_forms():
    assert ((X - Y) * L).render() == "([X] - [Y])*L"
    assert ((X - Y) * L**2).render() == "([X] - [Y])*L^2"
    assert GRExpr.proj_space(2).render() == "(1 + L + L^2)"
    assert (X * Y * L + ONE).render() == "1 + [X]*[Y]*L"
    assert GRExpr().render() == "0"


def test_integer_substitution_turns_rules_into_identities():
    rng = random.Random(12)
    for _ in range(30):
        p = rng.randint(2, 30)
        xv = rng.randint(0, 500)
        lhs = rule_family_total(X, 2, 1).evaluate(p, {"X": xv})
        assert lhs == (p**4 - 1) // (p - 1) + xv * p
