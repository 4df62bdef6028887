"""Single quadratic forms over F_p (p odd): congruence diagonalization,
rank/corank, signed discriminant, the determinant double-cover count of one
fiber, exact projective point counts, restriction to a subspace, hyperbolic
reduction at an isotropic vector, and congruence testing.

Conventions.  A form is held by its symmetric Gram matrix M with
q(v) = v^T M v and polar form b(u, v) = u^T M v; this is well defined since
the characteristic is odd.  For even rank r = 2t the *signed* discriminant
character is chi((-1)^t * det of the nondegenerate block).  The (-1)^t sign
makes the invariant stable under splitting off hyperbolic planes, which is
exactly what the determinant double-cover bookkeeping in `netfib` needs: a
raw determinant flips by det(h) = -1 per split-off plane.

Point counts.  For a form of rank r and corank c on N = r + c variables,

    #{q = 0 in P^(N-1)} = N_r * p^c + (p^c - 1)/(p - 1),

where N_r = (p^(r-1) - 1)/(p - 1) for odd r, and for even r the same plus
eps * p^(r/2 - 1) with eps the signed discriminant character.  Rank 0 means
the whole P^(N-1).  The closed form is validated against the brute-force
enumeration oracle in the acceptance suite before anything else trusts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import modmat
from .errors import InputError
from .gfp import PrimeField, legendre_character, projective_rows_where, projective_size


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric N x N integer matrix housing a quadratic form."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise InputError("Gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise InputError(f"Gram matrix not symmetric at ({i}, {j})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "GramMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "GramMatrix":
        n = len(diag)
        return cls(tuple(tuple(int(diag[i]) if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, n: int) -> "GramMatrix":
        return cls(tuple((0,) * n for _ in range(n)))

    @property
    def size(self) -> int:
        return len(self.entries)

    def q(self, v: Sequence[int], field: PrimeField | None = None) -> int:
        total = sum(
            self.entries[i][j] * v[i] * v[j]
            for i in range(self.size)
            for j in range(self.size)
        )
        return total % field.p if field is not None else total

    def b(self, u: Sequence[int], v: Sequence[int], field: PrimeField | None = None) -> int:
        total = sum(
            self.entries[i][j] * u[i] * v[j]
            for i in range(self.size)
            for j in range(self.size)
        )
        return total % field.p if field is not None else total

    def to_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)


@dataclass(frozen=True)
class FormInvariants:
    """Rank, corank and signed discriminant character of a form over F_p.

    signed_disc_character is +1/-1 for even rank and 0 for odd rank, where
    it carries no counting information and is left unused.
    """

    rank: int
    corank: int
    signed_disc_character: int


def diagonalize(matrix: GramMatrix, field: PrimeField) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Congruence diagonalization over F_p: returns (diag, A) with A^T M A
    diagonal and diag its diagonal entries.

    Pivot policy, for determinism: first nonzero diagonal entry in row
    order; failing that, the first off-diagonal (j, l) in row-major order
    gets the substitution u_j <- u_j + u_l (valid in odd characteristic)
    to create a diagonal pivot.
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


def classify(matrix: GramMatrix, field: PrimeField) -> FormInvariants:
    """Rank, corank, and (for even rank) the signed discriminant character."""
    diag, _ = diagonalize(matrix, field)
    nonzero = [d for d in diag if d != 0]
    rank = len(nonzero)
    corank = matrix.size - rank
    if rank % 2 == 0:
        det_block = 1
        for d in nonzero:
            det_block = det_block * d % field.p
        sign = -1 if (rank // 2) % 2 else 1
        signed = legendre_character(sign * det_block, field)
    else:
        signed = 0
    return FormInvariants(rank=rank, corank=corank, signed_disc_character=signed)


def double_cover_points(matrix: GramMatrix, field: PrimeField) -> int:
    """Points of the determinant double cover over one fiber of even size N:
    1 + chi((-1)^(N/2) det M), which is 1 on the branch locus (chi(0) = 0).

    The (-1)^(N/2) sign is the signed-discriminant convention above, so the
    count is the same for a family and for its hyperbolic reduction.
    """
    n = matrix.size
    if n % 2 != 0:
        raise InputError("determinant double cover needs an even Gram size")
    sign = -1 if (n // 2) % 2 else 1
    return 1 + legendre_character(sign * modmat.det_mod(matrix.entries, field), field)


def disc_character(matrix: GramMatrix, field: PrimeField) -> int:
    """Ordinary discriminant character: chi(det of the nondegenerate block),
    +1 for the zero form."""
    diag, _ = diagonalize(matrix, field)
    det_block = 1
    for d in diag:
        if d != 0:
            det_block = det_block * d % field.p
    return legendre_character(det_block, field)


def count_projective_points(matrix: GramMatrix, field: PrimeField) -> int:
    """Exact #{[v] in P^(N-1)(F_p) : q(v) = 0} by the closed form."""
    p = field.p
    inv = classify(matrix, field)
    n = matrix.size
    if inv.rank == 0:
        return projective_size(n - 1, p)
    r, c = inv.rank, inv.corank
    nondeg = (p ** (r - 1) - 1) // (p - 1)
    if r % 2 == 0:
        nondeg += inv.signed_disc_character * p ** (r // 2 - 1)
    return nondeg * p**c + (p**c - 1) // (p - 1)


def form_values(points: np.ndarray, matrix: GramMatrix, field: PrimeField) -> np.ndarray:
    """q(v) mod p at every row v of `points` (int64, one point per row)."""
    m = matrix.to_array() % field.p
    return ((points @ m) * points).sum(axis=1) % field.p


def brute_force_count(matrix: GramMatrix, field: PrimeField, budget: int = 4_000_000) -> int:
    """Exhaustive count over P^(N-1)(F_p); the oracle for the closed form.

    Refuses (BudgetExceededError) when the projective space holds more than
    `budget` points.
    """
    zeros = projective_rows_where(
        matrix.size - 1, field, lambda rows: form_values(rows, matrix, field) == 0, budget
    )
    return len(zeros)


def restrict(matrix: GramMatrix, basis: Sequence[Sequence[int]], field: PrimeField) -> GramMatrix:
    """The form restricted to the span of `basis`: K^T M K mod p, with the
    basis vectors as the columns of K."""
    p = field.p
    n = matrix.size
    return GramMatrix.from_rows(
        [
            [
                sum(ku[i] * matrix.entries[i][j] * kv[j] for i in range(n) for j in range(n)) % p
                for kv in basis
            ]
            for ku in basis
        ]
    )


def hyperbolic_reduce_at_vector(
    matrix: GramMatrix, v: Sequence[int], field: PrimeField
) -> GramMatrix:
    """The form induced on v-perp / <v> for an isotropic v outside the radical.

    Picks w with b(v, w) = 1 and restricts the form to the complement
    {u : b(v, u) = 0 and b(w, u) = 0}.  The rank drops by exactly two and
    the corank is preserved; for even ranks the signed discriminant
    character is invariant (that is the point of the (-1)^t convention).
    """
    p = field.p
    n = matrix.size
    vred = [x % p for x in v]
    if matrix.q(vred, field) != 0:
        raise InputError("reduction vector is not isotropic")
    mv = modmat.matvec(matrix.entries, vred, field)
    j0 = next((j for j in range(n) if mv[j] != 0), None)
    if j0 is None:
        raise InputError("reduction vector lies in the radical (degenerate section)")
    # rows cutting out the complement: b(v, .) = 0 and b(e_{j0}, .) = 0
    mw = [matrix.entries[j0][j] % p for j in range(n)]
    return restrict(matrix, modmat.kernel_basis([mv, mw], n, field), field)


def forms_congruent(m1: GramMatrix, m2: GramMatrix, field: PrimeField) -> bool:
    """Whether the forms are congruent over F_p.

    Over a finite field of odd characteristic, rank plus the square class
    of the discriminant of the nondegenerate block classify forms of a
    given dimension, so this is a two-invariant comparison.
    """
    if m1.size != m2.size:
        raise InputError("congruence test requires matrices of the same size")
    i1 = classify(m1, field)
    i2 = classify(m2, field)
    if i1.rank != i2.rank:
        return False
    if i1.rank == 0:
        return True
    return disc_character(m1, field) == disc_character(m2, field)
