import random

import pytest

from quadring import modmat
from quadring.errors import InputError
from quadring.gfp import PrimeField
from quadring.mpoly import (
    HomPoly,
    determinant_of_linear_matrix,
    evaluate_on_array,
)

from _util import random_symmetric


def _random_hompoly(rng, num_vars, degree, terms=6, bound=9):
    acc = {}
    for _ in range(terms):
        exps = [0] * num_vars
        for _ in range(degree):
            exps[rng.randrange(num_vars)] += 1
        acc[tuple(exps)] = rng.randint(-bound, bound)
    return HomPoly(num_vars, degree, acc)


def _matrix_at(matrices, s):
    """The numeric matrix sum_k s_k M_k."""
    n = len(matrices[0])
    return [[sum(x * m[i][j] for x, m in zip(s, matrices)) for j in range(n)] for i in range(n)]


def test_evaluate_examples():
    f5 = PrimeField(5)
    f3 = PrimeField(3)
    sq = HomPoly.monomial(3, (2, 0, 0))
    assert sq.evaluate((1, 0, 0), f5) == 1
    g = HomPoly(3, 2, {(1, 1, 0): 1, (0, 0, 2): 1})
    assert g.evaluate((1, 1, 1), f3) == 2
    with pytest.raises(InputError):
        g.evaluate((1, 1), f3)


def test_homogeneity_enforced():
    with pytest.raises(InputError):
        HomPoly(2, 2, {(1, 0): 1})
    with pytest.raises(InputError):
        HomPoly(2, 2, {(1, 1, 0): 1})


def test_determinant_diagonal():
    m = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    assert determinant_of_linear_matrix(m) == HomPoly(2, 2, {(1, 1): 1})


def test_determinant_pencil_factors():
    pencil = [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]],
    ]
    lam = HomPoly.variable(2, 0)
    mu = HomPoly.variable(2, 1)
    expected = lam * (lam + mu) * (lam + mu.scale(2)) * (lam + mu.scale(3))
    assert determinant_of_linear_matrix(pencil) == expected


def test_determinant_matches_numeric_oracle():
    rng = random.Random(2024)
    f7 = PrimeField(7)
    grams = [random_symmetric(rng, 6).entries for _ in range(3)]
    det = determinant_of_linear_matrix(grams)
    assert det.degree == 6
    checked = 0
    while checked < 50:
        s = [rng.randrange(7) for _ in range(3)]
        if all(x == 0 for x in s):
            continue
        assert det.evaluate(s, f7) == modmat.det_mod(_matrix_at(grams, s), f7)
        checked += 1


def test_determinant_evaluation_random_2x2_pairs():
    # 100 random (matrix, point) pairs: the determinant polynomial evaluated
    # at s equals the numeric determinant of the matrix at s
    rng = random.Random(1)
    f7 = PrimeField(7)
    for _ in range(100):
        # entries[i][j] holds the coefficients of entry (i, j); not symmetric
        entries = [[[rng.randint(-5, 5) for _ in range(3)] for _ in range(2)] for _ in range(2)]
        mats = [[[entries[i][j][k] for j in range(2)] for i in range(2)] for k in range(3)]
        det = determinant_of_linear_matrix(mats)
        s = [rng.randrange(7) for _ in range(3)]
        assert det.evaluate(s, f7) == modmat.det_mod(_matrix_at(mats, s), f7)


def test_determinant_congruence_scaling():
    # det(A^T M(s) A) = det(A)^2 det(M(s)) for constant integer A
    rng = random.Random(5)
    f11 = PrimeField(11)
    grams = [random_symmetric(rng, 4, bound=4).entries for _ in range(3)]
    a = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
    transformed = []
    for g in grams:
        ga = [[sum(g[i][k] * a[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
        aga = [[sum(a[k][i] * ga[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
        transformed.append(aga)
    det = determinant_of_linear_matrix(grams)
    det_t = determinant_of_linear_matrix(transformed)
    det_a = modmat.det_mod(a, f11)
    for _ in range(20):
        s = [rng.randrange(11) for _ in range(3)]
        assert det_t.evaluate(s, f11) == det_a * det_a * det.evaluate(s, f11) % 11


def test_evaluate_on_array_matches_scalar():
    import numpy as np

    rng = random.Random(9)
    f7 = PrimeField(7)
    f = _random_hompoly(rng, 3, 4)
    pts = np.array([[rng.randrange(7) for _ in range(3)] for _ in range(40)])
    vals = evaluate_on_array(f, pts, f7)
    for row, v in zip(pts, vals):
        assert f.evaluate([int(x) for x in row], f7) == int(v)


def test_evaluate_on_array_is_exact_at_the_largest_prime():
    # at p = 2^31 - 1, x0^3 and 5 * x0^2 at x0 = p - 2 = -2 need products
    # near p^2; a power or coefficient product taken in one int64 step wraps
    import numpy as np

    field = PrimeField(2**31 - 1)
    p = field.p
    x0 = np.array([[p - 2, 1]], dtype=np.int64)
    assert evaluate_on_array(HomPoly(2, 3, {(3, 0): 1}), x0, field)[0] == p - 8
    assert evaluate_on_array(HomPoly(2, 2, {(2, 0): 5}), x0, field)[0] == 20
    f = _random_hompoly(random.Random(2), 2, 5)
    pts = np.array([[p - 1 - k, p - 3 * k - 2] for k in range(20)], dtype=np.int64)
    assert evaluate_on_array(f, pts, field).tolist() == [f.evaluate(row, field) for row in pts.tolist()]


def test_big_coefficients_stay_exact():
    # determinant of a 6x6 with entries ~1e3 exceeds 64 bits; int math must hold
    rng = random.Random(4)
    grams = [random_symmetric(rng, 6, bound=1000).entries for _ in range(2)]
    det = determinant_of_linear_matrix(grams)
    value = det.evaluate((1, 1))
    direct = [[grams[0][i][j] + grams[1][i][j] for j in range(6)] for i in range(6)]
    from fractions import Fraction

    def exact_det(mat):
        mat = [[Fraction(x) for x in row] for row in mat]
        n = len(mat)
        det_val = Fraction(1)
        for c in range(n):
            piv = next((i for i in range(c, n) if mat[i][c] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                mat[c], mat[piv] = mat[piv], mat[c]
                det_val = -det_val
            det_val *= mat[c][c]
            for i in range(c + 1, n):
                f = mat[i][c] / mat[c][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
        return det_val

    assert value == exact_det(direct)
    assert abs(value) > 2**40  # actually large, so the test bites
