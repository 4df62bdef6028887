"""Shared helpers for the test suite, and the per-matrix Python oracles
the batched library routines are checked against."""

import math
import random

import numpy as np

from quadring.errors import InputError
from quadring.gfp import PrimeField, legendre_character, projective_size
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


def record_scan_blocks(monkeypatch) -> list:
    """Make `quadform.common_zeros` record every block (h, s) its walk hands
    to the zero test; returns the list the blocks are appended to."""
    from quadring import quadform

    blocks = []
    original = quadform.scan_projective

    def spy(n, field, keep, budget, jobs):
        def recording_keep(h, s):
            blocks.append((h, s))
            return keep(h, s)

        return original(n, field, recording_keep, budget, jobs)

    monkeypatch.setattr(quadform, "scan_projective", spy)
    return blocks


def projective_rows_where(n: int, field: PrimeField, keep, budget: int = 4_000_000, jobs: int = 1) -> np.ndarray:
    """The rows of P^n(F_p), in canonical order, where the boolean mask
    keep(rows) is true: the walk of `gfp.scan_projective`, with each block
    expanded to its full rows before the mask is applied.  The in-memory
    mask oracle."""
    from quadring.gfp import scan_projective

    def block(h: np.ndarray, s: np.ndarray) -> np.ndarray:
        rows = np.hstack((np.repeat(h, len(s), axis=0), np.tile(s, (len(h), 1))))
        return rows[keep(rows)]

    return scan_projective(n, field, block, budget, jobs)


def on_all_forms(grams, field: PrimeField):
    """The mask of the rows on which every form vanishes."""

    def mask(rows: np.ndarray) -> np.ndarray:
        keep = np.ones(len(rows), dtype=bool)
        for g in grams:
            keep &= form_values(rows, g, field) == 0
        return keep

    return mask


def full_scan_zeros(grams, field: PrimeField) -> np.ndarray:
    """The brute-force oracle of `quadform.common_zeros`: every form
    evaluated at every point of P^(N-1)(F_p), block by block."""
    size = grams[0].size
    return projective_rows_where(size - 1, field, on_all_forms(grams, field), projective_size(size - 1, field.p))


def fiber_list(chunks) -> list:
    """The (base point, fiber Gram) pairs of a chunked fiber walk, one per
    fiber, in walk order."""
    return [
        (tuple(row), GramMatrix.from_array(gram))
        for rows, grams in chunks
        for row, gram in zip(rows.tolist(), grams)
    ]


def form_values(points: np.ndarray, matrix: GramMatrix, field: PrimeField) -> np.ndarray:
    """q(v) mod p at every row v of `points` (int64, one point per row)."""
    from quadring import modmat

    p = field.p
    return (modmat.matmul_mod(points, modmat.residues(matrix.entries, field), p) * points % p).sum(axis=1) % p


def diagonalize(matrix: GramMatrix, field: PrimeField) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Congruence diagonalization over F_p, one matrix in Python ints:
    returns (diag, A) with A^T M A diagonal and diag its diagonal entries.
    The oracle for `quadform.classify_stack`.

    Pivot policy, the same as the batched routine's: first nonzero diagonal
    entry in row order; failing that, the first off-diagonal (j, l) in
    row-major order gets the substitution u_j <- u_j + u_l (valid in odd
    characteristic) to create a diagonal pivot.
    """
    p = field.p
    n = matrix.size
    b = [[x % p for x in row] for row in matrix.entries]
    # a holds the basis change as columns: a[i][j] = coordinate i of basis vector j
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def add_col(dst: int, src: int, factor: int) -> None:
        # basis_dst += factor * basis_src, updating b = A^T M A symmetrically
        for i in range(n):
            a[i][dst] = (a[i][dst] + factor * a[i][src]) % p
        for i in range(n):
            b[i][dst] = (b[i][dst] + factor * b[i][src]) % p
        for j in range(n):
            b[dst][j] = (b[dst][j] + factor * b[src][j]) % p

    def swap_cols(x: int, y: int) -> None:
        for i in range(n):
            a[i][x], a[i][y] = a[i][y], a[i][x]
        for i in range(n):
            b[i][x], b[i][y] = b[i][y], b[i][x]
        b[x], b[y] = b[y], b[x]

    for i in range(n):
        piv = next((j for j in range(i, n) if b[j][j] != 0), None)
        if piv is None:
            pair = next(
                ((j, l) for j in range(i, n) for l in range(j + 1, n) if b[j][l] != 0),
                None,
            )
            if pair is None:
                break  # remaining block is zero
            j, l = pair
            add_col(j, l, 1)  # now b[j][j] = 2*b[j][l] != 0
            piv = j
        if piv != i:
            swap_cols(i, piv)
        inv = pow(b[i][i], p - 2, p)
        for j in range(i + 1, n):
            if b[i][j] != 0:
                add_col(j, i, (-b[i][j] * inv) % p)

    diag = tuple(b[i][i] for i in range(n))
    return diag, tuple(tuple(row) for row in a)


def diagonal_invariants(matrix: GramMatrix, field: PrimeField) -> tuple[int, int]:
    """(rank, signed discriminant character) read from `diagonalize`: the
    character is chi((-1)^(r/2) * product of the nonzero diagonal) at even
    rank r and 0 at odd rank."""
    nonzero = [d for d in diagonalize(matrix, field)[0] if d != 0]
    rank = len(nonzero)
    if rank % 2:
        return rank, 0
    return rank, legendre_character((-1) ** (rank // 2) * math.prod(nonzero), field)


def disc_character(matrix: GramMatrix, field: PrimeField) -> int:
    """Ordinary discriminant character: chi(det of the nondegenerate block),
    +1 for the zero form."""
    return legendre_character(math.prod(d for d in diagonalize(matrix, field)[0] if d != 0), field)


def forms_congruent(m1: GramMatrix, m2: GramMatrix, field: PrimeField) -> bool:
    """Whether the forms are congruent over F_p.

    Over a finite field of odd characteristic, rank plus the square class
    of the discriminant of the nondegenerate block classify forms of a
    given dimension, so this is a two-invariant comparison.
    """
    if m1.size != m2.size:
        raise InputError("congruence test requires matrices of the same size")
    if diagonal_invariants(m1, field)[0] != diagonal_invariants(m2, field)[0]:
        return False
    return disc_character(m1, field) == disc_character(m2, field)
