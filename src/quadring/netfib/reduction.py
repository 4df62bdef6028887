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

Every count here reads the net's ranks and signed characters from
`family.fiber_table`; the reduced family has no walk of its own.  Where U
meets no radical of M(w), M(w) is k+1 hyperbolic planes plus the reduced
fiber, whose rank is less by 2(k+1) and whose signed character is the same,
since a plane's (-1)^1 det is 1 (`_reduced_classes`, which Qbar and the
reduced Y share).  U lies on X, so a radical vector r in U has q_j(r) = 0
for every j, and the gradient of det M(w), c (q_0(r), .., q_m(r)) at
corank 1 by Jacobi's formula and 0 at corank >= 2, vanishes: the section
test reads only the singular points that `fiber_table` keeps.  The
determinant double cover counts 1 + chi((-1)^(N/2) det M(w)) per fiber;
the signed determinant has even degree, so the representative does not
matter, and a reduction's cover is its net's by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

from ..errors import DegenerateSectionError, InputError
from ..gfp import PrimeField
from .. import modmat
from ..quadform import GramMatrix, double_cover_count, quadric_points
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


@functools.lru_cache(maxsize=1)  # shared by Qbar and the reduced Y at one prime, so read-only
def _reduced_classes(red: ReducedFamily, field: PrimeField) -> tuple[np.ndarray, np.ndarray]:
    """The reduced fibers' ranks and signed characters: the net's from
    `fiber_table`, each rank less 2(k+1).  U meets the radical of M(w) where
    U M(w) has rank below k+1, only at a fiber the table keeps, where U's
    radical vector on X makes the discriminant's gradient vanish.  The
    first such w raises DegenerateSectionError, after `split_at`'s checks."""
    p = field.p
    u = split_at(red.net, red.u_rows, field)[0]
    rank, signed, rows, grams = fiber_table(red.net, field)
    degenerate = np.flatnonzero(modmat.row_reduce(modmat.matmul_mod(u, grams, p), p)[0] < red.k + 1)
    if degenerate.size:
        raise DegenerateSectionError(f"section degenerates over base point {tuple(rows[degenerate[0]].tolist())} at p={p}")
    rank = rank - 2 * (red.k + 1)
    rank.flags.writeable = False
    return rank, signed


def count_reduced_family(red: ReducedFamily, field: PrimeField) -> int:
    """#(reduced family)(F_p), fiberwise over P^m(F_p): the closed form on
    the reduced fibers' ranks and signed characters (`_reduced_classes`)."""
    return quadric_points(red.fiber_size, *_reduced_classes(red, field), field.p)


def count_double_cover(family: QuadricNet | ReducedFamily, field: PrimeField) -> int:
    """#Y(F_p) for the determinant double cover of an even-sized family:
    `quadform.double_cover_count` on the fibers' ranks and signed characters."""
    classes = _reduced_classes(family, field) if isinstance(family, ReducedFamily) else fiber_table(family, field)[:2]
    return double_cover_count(family.fiber_size, *classes)
