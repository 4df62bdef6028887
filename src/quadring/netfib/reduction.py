"""Hyperbolic reduction of a quadric family along an isotropic subspace, and
the counting routines for the reduced family and the determinant double
cover.

Given a net Q -> P^m and a (k+1)-dimensional subspace U that is isotropic
for every member of the net, the reduced family lives as a complete
intersection in P^m x P(V/U): k+1 conditions bilinear in (w, v') plus one
condition linear in w and quadratic in v'.  The splitting V = U + V' is
fixed by the echelon pivots of the given basis of U, and the lift of v'
puts zeros in the pivot slots.  Any other splitting gives fiberwise
congruent forms, so determinism wins.

Every count here reads the fibers' ranks and signed characters from one
`quadform.classify_stack` call per chunk of base points.  The determinant
double cover of an even-sized family counts 1 + chi((-1)^(N/2) det M(w)) per
fiber at the canonical representative; the degree of the signed determinant
is even, so the value does not depend on the representative.  The sign
matches the signed discriminant of `quadform`, which is what makes the cover
count agree between a family and its hyperbolic reduction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence

import numpy as np

from ..errors import DegenerateSectionError, InputError
from ..gfp import PrimeField, enumerate_projective, projective_size
from .. import modmat
from ..quadform import FiberChunk, GramMatrix, double_cover_count, fiber_classes, fiber_grams, quadric_points, restrict
from .family import QuadricNet

REDUCED_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ReducedFamily:
    """Complete-intersection model of a hyperbolic reduction in P^m x P^(n-k).

    bilinear[j] is the (m+1) x (n-k+1) integer matrix of the j-th bilinear
    condition: entry (i, c) multiplies w_i * v'_c.  quad[i] is the symmetric
    (n-k+1) x (n-k+1) integer matrix such that the quadratic condition is
    sum_i w_i * (v'^T quad[i] v').  pivots are the coordinates of V deleted
    by the splitting, and u_rows the primitive echelon basis of U.
    """

    n: int
    m: int
    k: int
    pivots: tuple[int, ...]
    u_rows: tuple[tuple[int, ...], ...]
    bilinear: tuple[tuple[tuple[int, ...], ...], ...]
    quad: tuple[GramMatrix, ...]

    def __post_init__(self) -> None:
        cols = self.n - self.k + 1
        if len(self.pivots) != self.k + 1 or len(self.u_rows) != self.k + 1:
            raise InputError("pivot or basis row count does not match k+1")
        if len(self.bilinear) != self.k + 1:
            raise InputError("expected k+1 bilinear condition matrices")
        for mat in self.bilinear:
            if len(mat) != self.m + 1 or any(len(r) != cols for r in mat):
                raise InputError("bilinear matrix has wrong shape")
        if len(self.quad) != self.m + 1:
            raise InputError("expected m+1 quadratic part matrices")
        for g in self.quad:
            if g.size != cols:
                raise InputError("quadratic part has wrong size")

    @property
    def reduced_dim(self) -> int:
        """Dimension of the reduced fiber quadrics: n - 2k - 2."""
        return self.n - 2 * self.k - 2

    @property
    def fiber_size(self) -> int:
        return self.n - 2 * self.k

    def fibers(self, field: PrimeField) -> Iterator[FiberChunk]:
        """(base rows w, stack of reduced fiber Grams) for each chunk of
        P^m(F_p), in canonical order, after checking the basis of U mod p: the
        quadratic part restricted to the kernel of the bilinear rows B(w).  The
        first w where B(w) drops rank (the section meets the fiber's singular
        locus) raises DegenerateSectionError naming it."""
        self.check_basis_mod_p(field)
        p, cols = field.p, self.n - self.k + 1
        # bilinear[j][i][c] is stored by condition j; the walk needs w_i first
        bilinear = modmat.residues(self.bilinear, field).transpose(1, 0, 2).reshape(self.m + 1, -1)
        quad = modmat.residues([g.entries for g in self.quad], field).reshape(self.m + 1, -1)

        def grams(rows: np.ndarray) -> np.ndarray:
            lins = modmat.matmul_mod(rows, bilinear, p).reshape(-1, self.k + 1, cols).tolist()
            kernels = [modmat.kernel_basis(lin, cols, field) for lin in lins]
            for s, kernel in zip(rows.tolist(), kernels):
                if len(kernel) > self.fiber_size:
                    raise DegenerateSectionError(f"section degenerates over base point {tuple(s)} at p={p}")
            return restrict(modmat.matmul_mod(rows, quad, p).reshape(-1, cols, cols), np.array(kernels), p)

        return fiber_grams(self.m, field, grams)

    def check_basis_mod_p(self, field: PrimeField) -> None:
        """The subspace U must stay (k+1)-dimensional mod p for the model
        to make sense at this prime."""
        if modmat.rank_mod(self.u_rows, self.n + 2, field) != self.k + 1:
            raise InputError(
                f"isotropic basis degenerates mod {field.p}; reduction invalid there"
            )

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
        g = 0
        for x in ints:
            g = gcd(g, x)
        out.append([x // g for x in ints] if g > 1 else ints)
    return out, pivots


def hyperbolic_reduce_family(
    net: QuadricNet, u_basis: Sequence[Sequence[int]]
) -> ReducedFamily:
    """Reduce the net along the span of u_basis (k+1 integer vectors).

    The span must be isotropic for every matrix of the net, checked exactly
    over Z.  Fiberwise nondegeneracy of the section is a per-prime
    condition and is checked by the counting routines instead.
    """
    size = net.fiber_size
    vectors = [list(map(int, u)) for u in u_basis]
    if not vectors or any(len(v) != size for v in vectors):
        raise InputError(f"basis vectors must have length {size}")
    k = len(vectors) - 1
    if net.n - 2 * k - 2 < 0:
        raise InputError(f"subspace of dimension {k + 1} is too large for n={net.n}")
    for mat in net.matrices:
        for a in range(k + 1):
            for b in range(a, k + 1):
                if mat.b(vectors[a], vectors[b]) != 0:
                    raise InputError(
                        "basis is not isotropic for the whole net (exact check over Z)"
                    )
    rows, pivots = _echelon_integer_basis(vectors)
    nonpivots = [c for c in range(size) if c not in pivots]
    bilinear = tuple(
        tuple(
            tuple(
                sum(rows[j][a] * net.matrices[i].entries[a][c] for a in range(size))
                for c in nonpivots
            )
            for i in range(net.m + 1)
        )
        for j in range(k + 1)
    )
    quad = tuple(
        GramMatrix(
            tuple(
                tuple(net.matrices[i].entries[a][b] for b in nonpivots) for a in nonpivots
            )
        )
        for i in range(net.m + 1)
    )
    return ReducedFamily(
        n=net.n,
        m=net.m,
        k=k,
        pivots=tuple(pivots),
        u_rows=tuple(tuple(r) for r in rows),
        bilinear=bilinear,
        quad=quad,
    )


def count_reduced_family(red: ReducedFamily, field: PrimeField) -> int:
    """#(reduced family)(F_p), fiberwise over P^m(F_p).

    Each fiber is the quadric cut by the quadratic part on the linear
    subspace where the bilinear conditions vanish; its count comes from the
    validated closed form.
    """
    return quadric_points(red.fiber_size, *fiber_classes(red.fibers(field), field.p), field.p)


def count_reduced_family_dual(red: ReducedFamily, field: PrimeField) -> int:
    """#(reduced family)(F_p) counted along the other projection.

    Over a fixed v' in P^(n-k)(F_p) every condition is linear in w, so the
    fiber is a projectivized kernel in P^m; this must agree with
    count_reduced_family on the nose.
    """
    red.check_basis_mod_p(field)
    p = field.p
    cols = red.n - red.k + 1
    total = 0
    for v in enumerate_projective(cols - 1, field):
        rows = [
            [
                sum(red.bilinear[j][i][c] * v[c] for c in range(cols)) % p
                for i in range(red.m + 1)
            ]
            for j in range(red.k + 1)
        ]
        rows.append([red.quad[i].q(v, field) for i in range(red.m + 1)])
        r = modmat.rank_mod(rows, red.m + 1, field)
        dim = red.m + 1 - r
        if dim > 0:
            total += projective_size(dim - 1, p)
    return total


def corank_histogram_reduced(red: ReducedFamily, field: PrimeField) -> dict[int, int]:
    """Corank histogram of the reduced fibers; matches the original net's."""
    rank, _ = fiber_classes(red.fibers(field), field.p)
    return dict(Counter((red.fiber_size - rank).tolist()))


def count_double_cover(family: QuadricNet | ReducedFamily, field: PrimeField) -> int:
    """#Y(F_p) for the determinant double cover of an even-sized family:
    `quadform.double_cover_count` on the fibers' ranks and signed characters."""
    return double_cover_count(family.fiber_size, *fiber_classes(family.fibers(field), field.p))
