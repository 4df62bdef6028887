"""Quadratic forms over F_p (p odd): rank and signed discriminant of a whole
stack of Gram matrices at once, the point and double-cover counts read from
them, common zeros (on a subspace too), restriction to a subspace,
hyperbolic reduction at an isotropic vector, and the chunked fiber walk.

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
eps * p^(r/2 - 1) with eps the signed discriminant character; N_0 = 0, so
rank 0 gives the whole P^(N-1).  The counts are Python ints, since sums of
them pass 2^63 at large p.  The closed form is validated against the
brute-force enumeration oracle in the acceptance suite before anything else
trusts it.

Common zeros.  `common_zeros` never walks all of P^(N-1): in its last
coordinate t a form is a t^2 + 2 b(u) t + c(u), so it walks u over P^(N-2)
and solves for t (`quadratic_roots`: square roots and inverses from tables
of F_p), which costs O(p^(N-2)) array work and is what `--budget` is charged
for.  The full scan of P^(N-1) is kept only as the tests' oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import modmat
from .errors import InputError
from .gfp import PrimeField, projective_row_chunks, scan_projective, size_within_budget


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
    def from_array(cls, array: np.ndarray) -> "GramMatrix":
        return cls(tuple(map(tuple, array.tolist())))

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
        return self.b(v, v, field)

    def b(self, u: Sequence[int], v: Sequence[int], field: PrimeField | None = None) -> int:
        total = sum(
            self.entries[i][j] * u[i] * v[j]
            for i in range(self.size)
            for j in range(self.size)
        )
        return total % field.p if field is not None else total


@dataclass(frozen=True)
class FormInvariants:
    """Rank, corank and signed discriminant character of a form over F_p.

    signed_disc_character is +1/-1 for even rank and 0 for odd rank, where
    it carries no counting information and is left unused.
    """

    rank: int
    corank: int
    signed_disc_character: int


def classify_stack(grams: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank and signed discriminant character (0 at odd rank) of every
    matrix of a stack (k, N, N) of symmetric residues mod p, by one
    congruence diagonalization of the whole stack.

    Pivot policy: the first nonzero diagonal entry of the remaining block,
    swapped into place; failing that, the first nonzero off-diagonal (j, l)
    in row-major order gets u_j <- u_j + u_l, making entry (j, j) =
    2 b(u_j, u_l) a pivot (p is odd).  A pivot d clears its row and column by
    u_y <- d u_y - b(u_0, u_y) u_0, leaving d (d B - b b^T): d^2 times the
    block that division by d leaves, so every pivot choice is the same and
    the pivots differ by squares.  Every product is of two residues, exact
    for p < 2^31.
    """
    b = np.array(grams, dtype=np.int64)
    k = len(b)
    every = np.arange(k)
    rank = np.zeros(k, dtype=np.int64)
    det = np.ones(k, dtype=np.int64)
    while b.shape[-1]:
        size = b.shape[-1]
        pivots = np.diagonal(b, axis1=1, axis2=2) != 0
        stuck = ~pivots.any(axis=1)
        if stuck.any() and size > 1:
            rows, cols = np.triu_indices(size, 1)
            off = b[:, rows, cols] != 0
            fix = np.flatnonzero(stuck & off.any(axis=1))
            first = off[fix].argmax(axis=1)
            j, l = rows[first], cols[first]
            b[fix, :, j] = (b[fix, :, j] + b[fix, :, l]) % p
            b[fix, j, :] = (b[fix, j, :] + b[fix, l, :]) % p
            pivots[fix, j] = True
        active = pivots.any(axis=1)
        if not active.any():
            break  # every remaining block is zero
        piv = pivots.argmax(axis=1)
        perm = np.tile(np.arange(size), (k, 1))
        perm[every, piv] = 0
        perm[:, 0] = piv
        b = b[every[:, None, None], perm[:, :, None], perm[:, None, :]]
        d, col = b[:, 0, 0], b[:, 1:, 0]
        b = (d[:, None, None] * b[:, 1:, 1:] - col[:, :, None] * col[:, None, :]) % p * d[:, None, None] % p
        rank += active
        det = np.where(active, det * d % p, det)
    # chi((-1)^(r/2) det) by Euler's criterion, once per distinct value; the
    # product of the pivots is never 0
    values, where = np.unique(np.where(rank // 2 % 2 == 1, p - det, det), return_inverse=True)
    signed = np.array([1 if pow(v, (p - 1) // 2, p) == 1 else -1 for v in values.tolist()], dtype=np.int64)
    return rank, np.where(rank % 2 == 0, signed[where], 0)


def classify(matrix: GramMatrix, field: PrimeField) -> FormInvariants:
    """Rank, corank, and (for even rank) the signed discriminant character:
    `classify_stack` on a stack of one."""
    rank, signed = (int(a[0]) for a in classify_stack(modmat.residues([matrix.entries], field), field.p))
    return FormInvariants(rank=rank, corank=matrix.size - rank, signed_disc_character=signed)


def quadric_points(size: int, rank: np.ndarray, signed: np.ndarray, p: int) -> int:
    """The sum of #{q = 0 in P^(size-1)(F_p)} over forms on `size`
    variables with the ranks and signed characters of `classify_stack`: the
    closed form once per distinct (rank, signed) pair, in Python ints."""
    pairs, counts = np.unique(np.stack((rank, signed)), axis=1, return_counts=True)
    total = 0
    for (r, eps), count in zip(pairs.T.tolist(), counts.tolist()):
        nondeg, c = 0, size - r  # rank 0: a form on no variables has no zeros
        if r > 0:
            nondeg = (p ** (r - 1) - 1) // (p - 1)
            if r % 2 == 0:
                nondeg += eps * p ** (r // 2 - 1)
        total += count * (nondeg * p**c + (p**c - 1) // (p - 1))
    return total


def count_projective_points(matrix: GramMatrix, field: PrimeField) -> int:
    """Exact #{[v] in P^(N-1)(F_p) : q(v) = 0} by the closed form:
    `classify_stack` and `quadric_points` on a stack of one."""
    rank, signed = classify_stack(modmat.residues([matrix.entries], field), field.p)
    return quadric_points(matrix.size, rank, signed, field.p)


def double_cover_count(size: int, rank: np.ndarray, signed: np.ndarray) -> int:
    """Points of the determinant double cover over forms of even size N with
    the ranks and signed characters of `classify_stack`: the sum of
    1 + chi((-1)^(N/2) det M), which is 1 where rank < N and 1 + the signed
    character at full rank.  The (-1)^(N/2) sign is the signed-discriminant
    convention above, so the count is the same for a family and for its
    hyperbolic reduction."""
    if size % 2 != 0:
        raise InputError("determinant double cover needs an even Gram size")
    return len(rank) + int(signed[rank == size].sum())


# Largest p whose square roots and inverses are tabulated once for all of
# F_p (`_table`); past it each block solves for its distinct values only.
TABLE_PRIMES = 1 << 12


def _sqrt_mod(v: int, p: int) -> int:
    """A square root of v mod p, or -1 when v is not a square: Euler's
    criterion, then Tonelli-Shanks."""
    if v == 0:
        return 0
    if pow(v, (p - 1) // 2, p) != 1:
        return -1
    q, m = p - 1, 0
    while q % 2 == 0:
        q, m = q // 2, m + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(v, q, p), pow(v, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _inverse_mod(v: int, p: int) -> int:
    """The inverse of v mod p, and 0 at 0."""
    return pow(v, p - 2, p)


@functools.lru_cache(maxsize=64)
def _table(fn: Callable[[int, int], int], p: int) -> np.ndarray:
    """fn(v, p) for every v in F_p, read-only since every caller shares it."""
    table = np.array([fn(v, p) for v in range(p)], dtype=np.int64)
    table.flags.writeable = False
    return table


def _lookup(fn: Callable[[int, int], int], values: np.ndarray, p: int) -> np.ndarray:
    """fn(v, p) at every entry of a flat residue array."""
    if p <= TABLE_PRIMES:
        return _table(fn, p)[values]
    distinct, where = np.unique(values, return_inverse=True)
    return np.array([fn(v, p) for v in distinct.tolist()], dtype=np.int64)[where]


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for an int64 array, as x - (x // p) p: numpy divides by a
    scalar about twice as fast as it takes the remainder."""
    q = x // p
    q *= p
    return np.subtract(x, q, out=q)


def _root_runs(a: np.ndarray, b: np.ndarray, c: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
    """The cells of `quadratic_roots` that have roots, and for each its
    smallest root, the step to the next and the number of roots.  Its own
    function so that its temporaries are freed before the roots are
    expanded, where a scan block's memory peaks."""
    r = _lookup(_sqrt_mod, _mod(b * b + (p - a) * c, p), p)  # b^2 where a = 0
    cells = np.flatnonzero(np.where(a != 0, r >= 0, (b != 0) | (c == 0)))
    a, b, c, r = a[cells], b[cells], c[cells], r[cells]
    quad = a != 0
    inv = _lookup(_inverse_mod, _mod(np.where(quad, a, 2 * b), p), p)  # 0 where a = b = 0
    one = _mod(np.where(quad, p - b + r, p - c) * inv, p)
    other = _mod(np.where(quad, 2 * p - b - r, p - c) * inv, p)
    every = inv == 0
    return cells, np.minimum(one, other), np.where(every, 1, abs(one - other)), np.where(every, p, 1 + (one != other))


def quadratic_roots(a: np.ndarray, b: np.ndarray, c: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Every root t in F_p of a t^2 + 2 b t + c = 0 at every cell of the flat
    residue arrays a, b and c, as (cell index, t) pairs in cell order, the
    smaller root first.

    a != 0: t = (-b +- r) / a for r^2 = b^2 - a c, none when that is no
    square.  a = 0: the equation is linear, with the one root -c / 2b when
    b != 0, every t when b = c = 0 and none otherwise.
    """
    cells, low, step, count = _root_runs(a, b, c, p)
    # t = the smallest root + (index of the root in its cell) * step
    t = np.arange(count.sum())
    t -= np.repeat(np.cumsum(count) - count, count)
    t *= np.repeat(step, count)
    t += np.repeat(low, count)
    return np.repeat(cells, count), t


def _linear_and_constant(m: np.ndarray, h: np.ndarray, s: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """b(u) and c(u) mod p on the grid u = (h_i, s_j), for the form m written
    as q(u, t) = a t^2 + 2 b(u) t + c(u) in its last coordinate t: b is a
    column over h plus a row over s, and c is q(h, 0) + q(0, s) plus the
    cross terms 2 (M_hs^T h) . s.  s has at most two columns, so every sum
    below has two values below p and at most two products below (p - 1)^2,
    and stays below 2^63 for p < 2^31."""
    k, cols = h.shape[1], s.T.copy()
    hm = modmat.matmul_mod(h, m[:k], p)
    sm = sum(col[:, None] * m[k + j, k:] for j, col in enumerate(cols)) % p
    c = (hm[:, :k] * h % p).sum(axis=1)[:, None] % p + sum(sm[:, j] * col for j, col in enumerate(cols)) % p
    for j, col in enumerate(cols):
        c += 2 * hm[:, k + j, None] % p * col
    return _mod(hm[:, -1, None] + sm[:, -1], p), _mod(c, p)


def common_zeros(
    grams: Sequence[GramMatrix], field: PrimeField, budget: int = 4_000_000, jobs: int = 1
) -> np.ndarray:
    """The points of P^(N-1)(F_p) where every form vanishes, in canonical
    order, for one or more N x N Gram matrices.

    Solves for the last coordinate t.  Every point but e_last is (u, t) with
    u in P^(N-2) and t in F_p, and the canonical order is that of u, then t,
    then e_last.  A form is q(u, t) = a t^2 + 2 b(u) t + c(u) with a its last
    diagonal entry.  On a block h x s of `scan_projective` over P^(N-2), b
    and c of the first nonzero form come from values over h and over s
    without building rows, and `quadratic_roots` solves it at every u.  The
    other forms are tested only at those roots, about one per u, as
    c + (2 b + a t) t with their b and c read from the same kind of grid.
    e_last is a zero exactly when every last diagonal entry is 0.  Raises
    BudgetExceededError when P^(N-2)(F_p) holds more than `budget` points.
    """
    p = field.p
    mats = [modmat.residues(g.entries, field) for g in grams]
    first, *rest = [m for m in mats if m.any()] or mats[:1]
    last = first.shape[0] - 1
    # e_last, kept when no form has a t^2 term
    tail = np.eye(1, last + 1, last, dtype=np.int64)[: int(not any(m[last, last] for m in mats))]

    def roots(h: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b, c = _linear_and_constant(first, h, s, p)
        return quadratic_roots(np.broadcast_to(first[last, last], b.size), b.ravel(), c.ravel(), p)

    def zeros(h: np.ndarray, s: np.ndarray) -> np.ndarray:
        cell, t = roots(h, s)  # the first form's grids are freed here
        for m in rest:
            b, c = _linear_and_constant(m, h, s, p)
            on = _mod(c.ravel()[cell] + _mod(2 * b.ravel()[cell] + m[last, last] * t, p) * t, p) == 0
            cell, t = cell[on], t[on]
        return np.hstack((h[cell // len(s)], s[cell % len(s)], t[:, None]))

    if last == 0:  # P^0 is e_last alone, and the walk over P^-1 is empty
        size_within_budget(-1, p, budget)
        return tail
    return np.concatenate((scan_projective(last - 1, field, zeros, budget, jobs), tail))


def zeros_on_span(
    grams: Sequence[GramMatrix], basis: modmat.IntRows, field: PrimeField, budget: int = 4_000_000
) -> np.ndarray:
    """The points of P^(N-1)(F_p) in the span of the rows of `basis` where
    every N x N form vanishes, in canonical order: `common_zeros` of the
    forms K M K^T on P^(k-1), with `budget` charged for that space, mapped
    by c -> c K.  With K the reduced row echelon form of the basis, that
    map keeps points canonical and keeps their order.  `common_zeros`
    solves for the last of the k coordinates, so the budget is charged for
    P^(k-2)."""
    size = grams[0].size
    rref = np.array(modmat.row_reduce(basis, size, field)[0], dtype=np.int64).reshape(-1, size)
    if len(rref) == 0:
        return rref
    mats = modmat.residues([g.entries for g in grams], field)
    restricted = [GramMatrix.from_array(m) for m in restrict(mats, rref, field.p)]
    return modmat.matmul_mod(common_zeros(restricted, field, budget), rref, field.p)


def restrict(grams: np.ndarray, bases: np.ndarray, p: int) -> np.ndarray:
    """K^T M K mod p for Gram arrays M and the basis vectors of K as the rows
    of `bases` (one of each, or stacks of them), entries in [0, p)."""
    return modmat.matmul_mod(modmat.matmul_mod(bases, grams, p), np.swapaxes(bases, -1, -2), p)


FiberChunk = tuple[np.ndarray, np.ndarray]


def fiber_grams(m: int, field: PrimeField, grams: Callable[[np.ndarray], np.ndarray]) -> Iterator[FiberChunk]:
    """(rows, grams(rows)) for each chunk of rows of P^m(F_p), in canonical
    order: grams(rows) is the stack (k, N, N) of fiber Grams over k rows."""
    for rows in projective_row_chunks(m, field):
        yield rows, grams(rows)


def fiber_classes(chunks: Iterable[FiberChunk], p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank and signed character of every fiber of a walk, in walk order:
    one `classify_stack` call per chunk."""
    ranks, signs = zip(*(classify_stack(grams, p) for _, grams in chunks))
    return np.concatenate(ranks), np.concatenate(signs)


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
    basis = np.array(modmat.kernel_basis([mv, mw], n, field), dtype=np.int64).reshape(-1, n)
    return GramMatrix.from_array(restrict(modmat.residues(matrix.entries, field), basis, p))
