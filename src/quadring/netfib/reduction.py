"""Hyperbolic reduction of a quadric family along an isotropic subspace, and
the counting routines for the reduced family and the determinant double
cover.

Given a net Q -> P^m and a (k+1)-dimensional subspace U that is isotropic
for every member of the net, the reduced family lives as a complete
intersection in P^m x P(V/U): k+1 conditions bilinear in (w, v') plus one
condition linear in w and quadratic in v'.  At each prime V splits as
U + V' at the pivots of U's basis mod p (`family.split_at`, the splitting
of the line scan and the X count too), and the lift of v' puts zeros in
the pivot slots.  A splitting fixed over Z stops being a complement of U
at a prime that divides one of its pivot entries.  Any other splitting
gives fiberwise congruent forms, so determinism wins.

Every count here reads the fibers' ranks and signed characters from
`family.fiber_table`, the one walk and classification of a family per
prime.  The determinant double cover of an even-sized family counts
1 + chi((-1)^(N/2) det M(w)) per fiber at the canonical representative; the
degree of the signed determinant is even, so the value does not depend on
the representative.  The sign matches the signed discriminant of
`quadform`, which is what makes the cover count agree between a family and
its hyperbolic reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence

import numpy as np

from ..errors import DegenerateSectionError, InputError
from ..gfp import PrimeField, projective_row_chunks
from .. import modmat
from ..quadform import FiberChunk, GramMatrix, double_cover_count, quadric_points, restrict
from .family import QuadricNet, fiber_table, split_at

REDUCED_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ReducedFamily:
    """Complete-intersection model of a hyperbolic reduction in P^m x P^(n-k).

    It keeps the net and u_rows, the primitive echelon basis of U over Z,
    whose pivots are the coordinates `pivots`.  `bilinear` and `quad` are
    the integer model split at those pivots, valid at every prime that
    divides no pivot entry: bilinear[j] is the (m+1) x (n-k+1) matrix of
    the j-th bilinear condition, entry (i, c) multiplying w_i * v'_c, and
    the quadratic condition is sum_i w_i * (v'^T quad[i] v').
    """

    n: int
    m: int
    k: int
    pivots: tuple[int, ...]
    u_rows: tuple[tuple[int, ...], ...]
    net: QuadricNet

    @property
    def reduced_dim(self) -> int:
        """Dimension of the reduced fiber quadrics: n - 2k - 2."""
        return self.n - 2 * self.k - 2

    @property
    def fiber_size(self) -> int:
        return self.n - 2 * self.k

    @property
    def bilinear(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        kept = [c for c in range(self.n + 2) if c not in self.pivots]
        return tuple(
            tuple(tuple(sum(x * row[c] for x, row in zip(u, mat.entries)) for c in kept) for mat in self.net.matrices)
            for u in self.u_rows
        )

    @property
    def quad(self) -> tuple[GramMatrix, ...]:
        kept = [c for c in range(self.n + 2) if c not in self.pivots]
        return tuple(GramMatrix(tuple(tuple(mat.entries[a][b] for b in kept) for a in kept)) for mat in self.net.matrices)

    def fibers(self, field: PrimeField) -> Iterator[FiberChunk]:
        """(base rows w, stack of reduced fiber Grams) for each chunk of
        P^m(F_p), in canonical order, with V split at U's pivots mod p
        (`split_at`, which raises InputError where U loses dimension): the
        quadratic part restricted to the kernel of the bilinear rows B(w),
        with one `modmat.kernel_stack` elimination per chunk.  The first w
        where B(w) drops rank (the section meets the fiber's singular
        locus) raises DegenerateSectionError naming it."""
        p, cols = field.p, self.n - self.k + 1
        _, kept, mats, bilinear = split_at(self.net, self.u_rows, field)
        quad = mats[:, kept][:, :, kept].reshape(self.m + 1, -1)

        def grams(rows: np.ndarray) -> np.ndarray:
            lins = modmat.matmul_mod(rows, bilinear, p).reshape(-1, self.k + 1, cols)
            rank, kernels = modmat.kernel_stack(lins, p)
            degenerate = np.flatnonzero(rank < self.k + 1)
            if degenerate.size:
                s = tuple(rows[degenerate[0]].tolist())
                raise DegenerateSectionError(f"section degenerates over base point {s} at p={p}")
            bases = kernels[kernels.any(axis=2)].reshape(len(rows), self.fiber_size, cols)
            return restrict(modmat.matmul_mod(rows, quad, p).reshape(-1, cols, cols), bases, p)

        return ((rows, grams(rows)) for rows in projective_row_chunks(self.m, field))

    def to_document(self) -> dict:
        return {
            "format_version": REDUCED_FORMAT_VERSION,
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "pivots": list(self.pivots),
            "u_rows": [list(r) for r in self.u_rows],
            "bilinear": [[x for row in mat for x in row] for mat in self.bilinear],
            "quad": [[x for row in g.entries for x in row] for g in self.quad],
        }


def _echelon_integer_basis(vectors: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Row-reduce integer vectors over Q, then clear denominators to get a
    primitive integer echelon basis of the same span; returns (rows, pivots)."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if r != len(rows):
        raise InputError("basis vectors are linearly dependent")
    out = []
    for row in rows[:r]:
        denom = lcm(*(x.denominator for x in row))
        ints = [int(x * denom) for x in row]
        g = gcd(*ints)
        out.append([x // g for x in ints])
    return out, pivots


def hyperbolic_reduce_family(
    net: QuadricNet, u_basis: Sequence[Sequence[int]]
) -> ReducedFamily:
    """Reduce the net along the span of u_basis (k+1 integer vectors).

    The span must lie on X, isotropic for every matrix of the net, checked
    exactly over Z.  The splitting of V and the nondegeneracy of the
    section are per-prime conditions, checked by the counting routines
    instead.
    """
    size = net.fiber_size
    vectors = [list(map(int, u)) for u in u_basis]
    for v in vectors or [[]]:
        if len(v) != size:
            raise InputError(f"point has length {len(v)}, expected {size}")
    if not all(map(any, vectors)):
        raise InputError("the zero vector is not a point")
    k = len(vectors) - 1
    if net.n - 2 * k - 2 < 0:
        raise InputError(f"subspace of dimension {k + 1} is too large for n={net.n}")
    bad = [j for j, mat in enumerate(net.matrices) if any(mat.b(u, v) for u in vectors for v in vectors)]
    if bad:
        raise InputError(f"{'point' if k == 0 else 'span'} is not on X over Z (forms {bad} do not vanish)")
    rows, pivots = _echelon_integer_basis(vectors)
    return ReducedFamily(n=net.n, m=net.m, k=k, pivots=tuple(pivots), u_rows=tuple(map(tuple, rows)), net=net)


def count_reduced_family(red: ReducedFamily, field: PrimeField) -> int:
    """#(reduced family)(F_p), fiberwise over P^m(F_p).

    Each fiber is the quadric cut by the quadratic part on the linear
    subspace where the bilinear conditions vanish; its count comes from the
    validated closed form.
    """
    return quadric_points(red.fiber_size, *fiber_table(red, field)[:2], field.p)


def count_double_cover(family: QuadricNet | ReducedFamily, field: PrimeField) -> int:
    """#Y(F_p) for the determinant double cover of an even-sized family:
    `quadform.double_cover_count` on the fibers' ranks and signed characters."""
    return double_cover_count(family.fiber_size, *fiber_table(family, field)[:2])
