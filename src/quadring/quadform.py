"""Quadratic forms over F_p (p odd): rank and signed discriminant of a whole
stack of Gram matrices at once (and the determinant, as the product of the
pivots), the point and double-cover counts read from them, common zeros (on
a subspace too), restriction to a subspace, and the classification of a
chunked fiber walk.

Conventions.  A form is held by its symmetric Gram matrix M with
q(v) = v^T M v and polar form b(u, v) = u^T M v; this is well defined since
the characteristic is odd.  For even rank r = 2t the *signed* discriminant
character is chi((-1)^t * det of the nondegenerate block).  The (-1)^t sign
makes the invariant stable under splitting off hyperbolic planes, which is
exactly what the determinant double-cover bookkeeping in `netfib` needs: a
raw determinant flips by det(h) = -1 per split-off plane.  Every reading of
the convention goes through `signed_character`.

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
and solves for t (`quadratic_roots`: square roots and inverses read
through `gfp.lookup`), which costs O(p^(N-2)) array work and is what
`--budget` is charged for.  The scans take int64 stacks (k, N, N) of
residues, like `classify_stack`, and `zeros_on_span` an int64 array of
residues for its span, reduced by `modmat.row_reduce` as a stack of one;
a `GramMatrix` holds the integers of a form before they are reduced.  The
full scan of P^(N-1) is kept only as the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import modmat
from .modmat import _mod
from .errors import InputError
from .gfp import PrimeField, character, inverse, lookup, scan_projective, square_root


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


def classify_stack(grams: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank and signed discriminant character (0 at odd rank) of every
    matrix of a stack (k, N, N) of symmetric residues mod p, by one
    congruence diagonalization of the whole stack (`_rank_and_det`).

    Pivot policy: the first nonzero diagonal entry of the remaining block,
    moved to the front, by an exchange of two rows and two columns, only in
    the members where it is out of place; failing that, the first nonzero
    off-diagonal (j, l) in row-major order gets u_j <- u_j + u_l, making
    entry (j, j) = 2 b(u_j, u_l) a pivot (p is odd).  A pivot d clears its
    row and column by the Schur complement B - b (b d^-1)^T, d^-1 read
    through `gfp.lookup`.  Both moves keep the determinant, so the product
    of the pivots is that of the nondegenerate block, the whole matrix's at
    full rank.  Every product is of two residues, exact for p < 2^31.
    """
    rank, det = _rank_and_det(grams, p)
    return rank, signed_character(rank, det, p)


def signed_character(rank: np.ndarray | int, det: np.ndarray, p: int) -> np.ndarray:
    """chi((-1)^(r/2) det) at even rank r and 0 at odd rank, for int64
    residues det of the nondegenerate blocks (a 0 reads 0)."""
    rank = np.asarray(rank)
    signed = lookup(character, _mod(np.where(rank // 2 % 2 == 1, p - 1, 1) * det, p), p)
    return signed * (rank % 2 == 0)


def _rank_and_det(grams: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The elimination of `classify_stack`: the rank and the product of the
    pivots of every member, its determinant at full rank."""
    b = np.array(grams, dtype=np.int64)
    k = len(b)
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
        move = np.flatnonzero(piv)  # exchange rows, then columns, 0 and piv
        j = piv[move]
        b[move, 0], b[move, j] = b[move, j], b[move, 0]
        b[move, :, 0], b[move, :, j] = b[move, :, j], b[move, :, 0]
        d, col = b[:, 0, 0], b[:, 1:, 0]
        scaled = col * lookup(inverse, d, p)[:, None] % p  # 0 where the block is 0
        b = _mod(b[:, 1:, 1:] - col[:, :, None] * scaled[:, None, :], p)
        rank += active
        det = np.where(active, det * d % p, det)
    return rank, det


def classify(matrix: GramMatrix, field: PrimeField) -> tuple[int, int]:
    """Rank and signed discriminant character (0 at odd rank) of one form:
    `classify_stack` on a stack of one."""
    return tuple(int(a[0]) for a in classify_stack(modmat.residues([matrix.entries], field), field.p))


def quadric_points(size: int, rank: np.ndarray, signed: np.ndarray, p: int) -> int:
    """The sum of #{q = 0 in P^(size-1)(F_p)} over forms on `size`
    variables with the ranks and signed characters of `classify_stack`: the
    closed form once per distinct (rank, signed) pair, in Python ints.  A
    pair is keyed as 3 rank + signed + 1: a 1-d unique sorts far faster."""
    keys, counts = np.unique(3 * rank + signed + 1, return_counts=True)
    total = 0
    for key, count in zip(keys.tolist(), counts.tolist()):
        r, eps = key // 3, key % 3 - 1
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


def _root_runs(a: np.ndarray, b: np.ndarray, c: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
    """The cells of `quadratic_roots` that have roots, and for each its
    smallest root, the step to the next and the number of roots.  Its own
    function so that its temporaries are freed before the roots are
    expanded, where a scan block's memory peaks."""
    r = lookup(square_root, _mod(b * b + (p - a) * c, p), p)  # b^2 where a = 0
    cells = np.flatnonzero(np.where(a != 0, r >= 0, (b != 0) | (c == 0)))
    a, b, c, r = a[cells], b[cells], c[cells], r[cells]
    quad = a != 0
    inv = lookup(inverse, _mod(np.where(quad, a, 2 * b), p), p)  # 0 where a = b = 0
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
    # (M^T s)_i for the columns i of s and t, each a contiguous row over s
    sm = [_mod(sum(m[k + j, i] * col for j, col in enumerate(cols)), p) for i in range(k, len(m))]
    c = ((hm[:, :k] * h % p).sum(axis=1) % p)[:, None] + _mod(sum(v * col for v, col in zip(sm, cols)), p)
    for j, col in enumerate(cols):
        c += 2 * hm[:, k + j, None] % p * col
    return _mod(hm[:, -1, None] + sm[-1], p), _mod(c, p)


def common_zeros(mats: np.ndarray, field: PrimeField, budget: int = 2_000_000, jobs: int = 1) -> np.ndarray:
    """The points of P^(N-1)(F_p) where every form vanishes, in canonical
    order, for a stack (k, N, N) of Gram matrices of residues.

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
    first, *rest = [m for m in mats if m.any()] or mats[:1]
    last = first.shape[0] - 1
    # e_last, kept when no form has a t^2 term
    tail = np.eye(1, last + 1, last, dtype=np.int64)[: int(not mats[:, last, last].any())]

    def roots(h: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b, c = _linear_and_constant(first, h, s, p)
        return quadratic_roots(np.broadcast_to(first[last, last], b.size), b.ravel(), c.ravel(), p)

    def zeros(h: np.ndarray, s: np.ndarray) -> np.ndarray:
        cell, t = roots(h, s)  # the first form's grids are freed here
        for m in rest:
            if not len(cell):
                break
            b, c = _linear_and_constant(m, h, s, p)
            on = _mod(c.ravel()[cell] + _mod(2 * b.ravel()[cell] + m[last, last] * t, p) * t, p) == 0
            cell, t = cell[on], t[on]
        return np.hstack((h[cell // len(s)], s[cell % len(s)], t[:, None]))

    if last == 0:  # P^0 is e_last alone, and the walk over P^-1 is empty
        return tail
    return np.concatenate((scan_projective(last - 1, field, zeros, budget, jobs), tail))


def zeros_on_span(mats: np.ndarray, basis: np.ndarray, field: PrimeField, budget: int = 2_000_000) -> np.ndarray:
    """The points of P^(N-1)(F_p) in the span of the rows of `basis`, an
    int64 array of residues, where every form of a stack of N x N Grams of
    residues vanishes, in canonical order: `common_zeros` of the forms
    K M K^T on P^(k-1), with `budget` charged for that space, mapped by
    c -> c K.  With K the reduced row echelon form of the basis, that map
    keeps points canonical and keeps their order.  `common_zeros` solves for
    the last of the k coordinates, so the budget is charged for P^(k-2)."""
    size = mats.shape[-1]
    rank, rref, _ = modmat.row_reduce(basis.reshape(1, -1, size), field.p)
    rref = rref[0, : rank[0]]
    if len(rref) == 0:
        return rref
    return modmat.matmul_mod(common_zeros(restrict(mats, rref, field.p), field, budget), rref, field.p)


def restrict(grams: np.ndarray, bases: np.ndarray, p: int) -> np.ndarray:
    """K^T M K mod p for Gram arrays M and the basis vectors of K as the rows
    of `bases` (one of each, or stacks of them), entries in [0, p)."""
    return modmat.matmul_mod(modmat.matmul_mod(bases, grams, p), np.swapaxes(bases, -1, -2), p)


FiberChunk = tuple[np.ndarray, np.ndarray]


def fiber_classes(chunks: Iterable[FiberChunk], size: int, p: int) -> tuple[np.ndarray, ...]:
    """The rank and signed character of every fiber of a walk, in walk order,
    from one `classify_stack` call per (base rows, Gram stack) chunk, and the
    base rows and Grams of the fibers whose rank is below `size`."""
    parts = []
    for base, stack in chunks:
        rank, signed = classify_stack(stack, p)
        parts.append((rank, signed, base[rank < size], stack[rank < size]))
    return tuple(np.concatenate(part) for part in zip(*parts))
