"""Shared helpers for the test suite."""

import random

from quadring.gfp import PrimeField
from quadring.mpoly import HomPoly
from quadring.quadform import GramMatrix


def random_symmetric(rng: random.Random, size: int, p: int | None = None, bound: int = 9) -> GramMatrix:
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            v = rng.randrange(p) if p is not None else rng.randint(-bound, bound)
            rows[i][j] = rows[j][i] = v
    return GramMatrix.from_rows(rows)


def random_invertible(rng: random.Random, size: int, field: PrimeField) -> list[list[int]]:
    from quadring import modmat

    while True:
        a = [[rng.randrange(field.p) for _ in range(size)] for _ in range(size)]
        if modmat.det_mod(a, field) != 0:
            return a


def congruent_transform(m: GramMatrix, a: list[list[int]], field: PrimeField) -> GramMatrix:
    """A^T M A mod p."""
    p = field.p
    n = m.size
    ma = [
        [sum(m.entries[i][k] * a[k][j] for k in range(n)) % p for j in range(n)]
        for i in range(n)
    ]
    ata = [
        [sum(a[k][i] * ma[k][j] for k in range(n)) % p for j in range(n)]
        for i in range(n)
    ]
    return GramMatrix.from_rows(ata)


def find_isotropic_vector(
    m: GramMatrix, field: PrimeField, rng: random.Random, avoid: tuple[int, ...] | None = None
) -> tuple[int, ...] | None:
    """A random isotropic vector outside the radical, or None after a bounded
    number of trials."""
    from quadring import modmat

    p = field.p
    n = m.size
    for _ in range(400):
        v = tuple(rng.randrange(p) for _ in range(n))
        if all(x == 0 for x in v):
            continue
        if avoid is not None and v == avoid:
            continue
        if m.q(v, field) != 0:
            continue
        if all(x == 0 for x in modmat.matvec(m.entries, v, field)):
            continue
        return v
    return None


def plane_cubic(seed: int, x0_squared: int) -> HomPoly:
    """x3*Q3 + x4*Q4 + x5*Q5 with coefficients drawn from [-3, 3], except
    the x0^2 coefficient of every Q_k, which is `x0_squared`.  The three
    plane conics all vanish at (1:0:0) mod every prime dividing
    `x0_squared` (every prime when it is 0), so the cubic is singular at
    that point of the plane x3 = x4 = x5 = 0 there."""
    rng = random.Random(seed)
    terms: dict[tuple[int, ...], int] = {}
    for k in (3, 4, 5):
        for i in range(6):
            for j in range(i, 6):
                exps = [0] * 6
                for v in (k, i, j):
                    exps[v] += 1
                c = x0_squared if (i, j) == (0, 0) else rng.randint(-3, 3)
                terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    return HomPoly(6, 3, terms)
