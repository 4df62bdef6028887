"""Counting recipes for two classical double-cover setups: cubic fourfolds
containing a plane, and double covers of P^2 x P^2 branched in a (2,2)
divisor.

Cubic with a plane.  For a cubic form F in x0..x5 lying in the ideal
(x3, x4, x5), projecting the blowup of the plane {x3 = x4 = x5 = 0} to
P^2_(x3:x4:x5) fibers it into quadric surfaces: substituting
(x3, x4, x5) = t * (s3, s4, s5) turns each term c y^a (x3, x4, x5)^b of
F into t * c s^b y^a t^(|b| - 1), so F = t * G_s(y0, y1, y2, t) with the yy
block of G_s linear in s, the yt entries quadratic and the tt entry cubic.
Scaling the representative of s rescales t, so fiber counts and
determinant characters are representative-independent.  The expected count identity,
the `cubic-plane` derivation of `grothring` read at L = p, is

    #X = 1 + p^2 + p^4 + p * #Y

with #Y the determinant double cover count of the fibration.  It holds when
every fiber has corank <= 1 *and* X is smooth along the plane.  On the plane
every partial derivative of F but d/dx3, d/dx4 and d/dx5 vanishes, and
d/dx_k restricts to the conic Q_k(y, 0) of the monomials x_k * y^e, so X is
singular at a point of the plane exactly where the three conics share a
zero, read from the yy block of the fiber Grams; each such F_p-point moves
the residual by -p^2.  Both hypotheses are checked at the rational level
only, and each has a flag in the report: corank by `corank2_found`,
smoothness along the plane by `singular_on_plane`.
`random_cubic_with_plane` returns only cubics that raise neither flag.

Verra setup.  For a (2,2) form G on P^2 x P^2, the double cover
X -> P^2 x P^2 branched in {G = 0} fibers over the first factor into the
quadric surfaces {w^2 = G(s, t)} with Gram diag(1) + (-Gram_t(G(s, .))),
and symmetrically over the second factor.  Both fibrations produce a
degree-2 double cover, and when each has fibers of corank <= 1, the two
routes of the `verra` derivation read at L = p give

    #X = (p^2 + 1) * #P^2 + p * #Y_i     for i = 1, 2,

forcing #Y_1 = #Y_2.

Each fibration is a `Fibration`: a map from a base monomial e in s, of any
degree, to an integer Gram G_e, the fiber over s being sum_e s^e G_e.  The
Grams are doubled (polarization matrices) to stay integral: `_fibration`
puts a term c at (i, j) and at (j, i), so a diagonal term gets 2c, which
multiplies determinants by even powers of 2 and leaves ranks, characters,
and point counts unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import BudgetExceededError, InputError
from .. import modmat
from ..grothring import GRExpr, derive
from ..gfp import (
    CHUNK_ROWS,
    PrimeField,
    character,
    lookup,
    projective_points_array,
    projective_row_chunks,
    projective_size,
    size_within_budget,
)
from ..mpoly import Exponents, HomPoly, evaluate_on_array, monomial_values, power_tables
from ..quadform import FiberChunk, common_zeros, double_cover_count, fiber_classes
from ..quadform import quadratic_roots

CUBIC_VARS = 6
PLANE_VARS = (3, 4, 5)
Fibration = dict[Exponents, list[list[int]]]  # base monomial e -> 4 x 4 doubled Gram G_e


def validate_cubic_with_plane(f: HomPoly) -> None:
    if f.num_vars != CUBIC_VARS or f.degree != 3:
        raise InputError("expected a cubic form in six variables")
    if f.is_zero():
        raise InputError("zero cubic form")
    for exps in f.terms:
        if exps[3] + exps[4] + exps[5] == 0:
            raise InputError(
                "cubic does not contain the plane x3 = x4 = x5 = 0 "
                f"(monomial {exps} misses x3, x4, x5)"
            )


def _fibration(terms: Iterable[tuple[Exponents, int, int, int]]) -> Fibration:
    """The doubled Grams by base monomial of the terms (e, i, j, c) of a
    quadric fibration over P^2: c at (i, j) and at (j, i) of G_e, so a
    diagonal term gets 2c."""
    grams: Fibration = {}
    for e, i, j, c in terms:
        gram = grams.setdefault(e, [[0] * 4 for _ in range(4)])
        gram[i][j] += c
        gram[j][i] += c
    return grams


def _pair(exps: Exponents) -> tuple[int, int]:
    """The two variables of a degree-2 monomial, in order."""
    i, j = (k for k, e in enumerate(exps) for _ in range(e))
    return i, j


def cubic_fiber_grams(f: HomPoly) -> Fibration:
    """The quadric fibration of a cubic through the plane, as a map from a
    base monomial e in (s3, s4, s5) to the integer doubled Gram G_e on the
    fiber coordinates (y0, y1, y2, t): the fiber over s is sum s^e G_e.  A
    term c y^a (x3, x4, x5)^b is c s^b y^a t^(|b| - 1)."""
    validate_cubic_with_plane(f)
    return _fibration((exps[3:], *_pair(exps[:3] + (sum(exps[3:]) - 1,)), c) for exps, c in f.terms.items())


def _fiber_grams(fibration: Fibration, field: PrimeField) -> Iterator[FiberChunk]:
    """(base rows, fiber Gram stack) for each chunk of rows of P^2(F_p), in
    canonical order: the chunk's values of the base monomials times the
    stacked G_e, in one product."""
    p = field.p
    tables = power_tables(np.array(list(fibration)).T, field)
    grams = modmat.residues(list(fibration.values()), field).reshape(len(fibration), -1)
    for rows in projective_row_chunks(2, field):
        yield rows, modmat.matmul_mod(monomial_values(tables, rows, p), grams, p).reshape(-1, 4, 4)


def _double_cover_count(fibration: Fibration, field: PrimeField) -> tuple[int, bool]:
    """#Y(F_p) of a quadric fibration over P^2, and whether some fiber has
    corank >= 2."""
    rank, signed, _, _ = fiber_classes(_fiber_grams(fibration, field), 4, field.p)
    return double_cover_count(4, rank, signed), bool((rank < 3).any())


def _singular_on_plane(fibration: Fibration, field: PrimeField) -> bool:
    """Whether the cubic of `cubic_fiber_grams` is singular at an F_p-point
    of the plane x3 = x4 = x5 = 0, i.e. whether its three plane conics share
    an F_p-zero: the conic of x_k is the yy block of G at the unit vector
    e_k of the base."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    conics = modmat.residues([[row[:3] for row in fibration.get(e, [[0] * 3] * 3)[:3]] for e in units], field)
    return len(common_zeros(conics, field)) > 0


def _cubic_x_count(f: HomPoly, field: PrimeField) -> int:
    """#X(F_p) for a cubic through the plane, solved for x2: f is
    A x2^2 + B x2 + C with forms A, B, C in u = (x0, x1, x3, x4, x5), so X is
    the points (u, x2) for the roots x2 of `quadratic_roots` on (A, B / 2, C)
    at each u of P^4, walked in blocks of CHUNK_ROWS rows, and the point e2,
    on X since f lies in (x3, x4, x5)."""
    p = field.p
    size = projective_size(4, p)
    coeffs = [HomPoly(5, 3 - e, {x[:2] + x[3:]: c for x, c in f.terms.items() if x[2] == e}) for e in (2, 1, 0)]
    count = 1
    for lo in range(0, size, CHUNK_ROWS):
        u = projective_points_array(4, field, lo, min(lo + CHUNK_ROWS, size))
        a, b, c = (evaluate_on_array(g, u, field) for g in coeffs)
        count += len(quadratic_roots(a, b * ((p + 1) // 2) % p, c, p)[0])
    return count


@dataclass(frozen=True)
class CubicReport:
    """Counts for one prime of the plane-projection recipe."""

    p: int
    x_count: int
    y_count: int
    residual: int
    corank2_found: bool
    singular_on_plane: bool

    @property
    def skipped(self) -> bool:
        return self.corank2_found or self.singular_on_plane

    @property
    def passed(self) -> bool:
        return self.residual == 0

    def text_line(self) -> str:
        flags = (" corank2" if self.corank2_found else "") + (" singular-on-plane" if self.singular_on_plane else "")
        return f"p={self.p} X={self.x_count} Y={self.y_count} residual={self.residual}{flags}"

    def to_document(self) -> dict:
        return {
            "p": self.p,
            "counts": {"X": self.x_count, "Y": self.y_count},
            "residual": self.residual,
            "flags": {
                "corank2_found": self.corank2_found,
                "singular_on_plane": self.singular_on_plane,
            },
        }


def cubic_with_plane_counts(
    f: HomPoly,
    primes: Sequence[int],
    budget: int = 2_000_000,
) -> list[CubicReport]:
    """Per-prime residual of the `cubic-plane` derivation at L = p,
    #X - (1 + p^2 + p^4 + p * #Y), for a cubic through the plane
    x3 = x4 = x5 = 0; expected 0 whenever corank <= 1 everywhere
    and the cubic is smooth along the plane, the two hypotheses the report
    flags.  #X is counted by solving for x2 over P^4 (`_cubic_x_count`),
    an independent route beside the fibration; a prime whose P^4(F_p) holds
    more than `budget` points raises BudgetExceededError before any prime
    is counted."""
    grams = cubic_fiber_grams(f)
    for p in primes:
        size_within_budget(4, p, budget)
    identity = derive("cubic-plane").residual
    reports = []
    for p in primes:
        field = PrimeField(p)
        x_count = _cubic_x_count(f, field)
        y_count, corank2 = _double_cover_count(grams, field)
        reports.append(
            CubicReport(
                p=p,
                x_count=x_count,
                y_count=y_count,
                residual=identity.evaluate(p, {"X": x_count, "Y": y_count}),
                corank2_found=corank2,
                singular_on_plane=_singular_on_plane(grams, field),
            )
        )
    return reports


def validate_verra_form(g: HomPoly) -> None:
    if g.num_vars != 6 or g.degree != 4:
        raise InputError("expected a form in s0, s1, s2, t0, t1, t2 of degree 4")
    if g.is_zero():
        raise InputError("zero form")
    for exps in g.terms:
        if sum(exps[:3]) != 2 or sum(exps[3:]) != 2:
            raise InputError(f"monomial {exps} is not of bidegree (2, 2)")


def _verra_fibrations(g: HomPoly) -> tuple[Fibration, Fibration]:
    """The quadric fibrations {w^2 = G(s, t)} over each factor, from one
    pass over G's terms: w^2 at e = 0, and each term c s^a t^b gives -c on
    the t-pair of the first fibration at e = a and on the s-pair of the
    second at e = b, on the coordinates (w, t) and (w, s)."""
    first, second = [((0, 0, 0), 0, 0, 1)], [((0, 0, 0), 0, 0, 1)]
    for exps, c in g.terms.items():
        a, b = exps[:3], exps[3:]
        first.append((a, *_pair((0,) + b), -c))
        second.append((b, *_pair((0,) + a), -c))
    return _fibration(first), _fibration(second)


@dataclass(frozen=True)
class VerraReport:
    """Counts for one prime of the (2,2) double-cover recipe."""

    p: int
    x_count: int
    y1_count: int
    y2_count: int
    residual_first: int
    residual_second: int
    y_difference: int
    corank2_first: bool
    corank2_second: bool

    @property
    def skipped(self) -> bool:
        return self.corank2_first or self.corank2_second

    @property
    def passed(self) -> bool:
        return self.residual_first == 0 and self.residual_second == 0 and self.y_difference == 0

    def text_line(self) -> str:
        flags = [name for name, on in (("corank2-first", self.corank2_first), ("corank2-second", self.corank2_second)) if on]
        return (
            f"p={self.p} X={self.x_count} Y1={self.y1_count} Y2={self.y2_count} "
            f"r1={self.residual_first} r2={self.residual_second} dY={self.y_difference}"
            + (f" flags={','.join(flags)}" if flags else "")
        )

    def to_document(self) -> dict:
        return {
            "p": self.p,
            "counts": {"X": self.x_count, "Y1": self.y1_count, "Y2": self.y2_count},
            "residuals": {
                "first": self.residual_first,
                "second": self.residual_second,
                "y_difference": self.y_difference,
            },
            "flags": {
                "corank2_first": self.corank2_first,
                "corank2_second": self.corank2_second,
            },
        }


def _verra_x_count(g: HomPoly, field: PrimeField) -> int:
    """#X(F_p), the sum of 1 + chi(G(s, t)) over P^2 x P^2.  G(s, t) is
    m(s)^T K m(t) for the s- and t-parts m of G's monomials and the matrix
    K of coefficients, so one product gives m(s)^T K at every s, and one
    product per block of s with the m(t) gives G on the block's grid."""
    p = field.p
    plane = projective_points_array(2, field)
    exps = np.array(list(g.terms)).T
    (s_exps, s_at), (t_exps, t_at) = (np.unique(part, axis=1, return_inverse=True) for part in (exps[:3], exps[3:]))
    coeffs = np.zeros((s_exps.shape[1], t_exps.shape[1]), dtype=np.int64)
    coeffs[s_at.reshape(-1), t_at.reshape(-1)] = modmat.residues(list(g.terms.values()), field)  # one term per pair
    left = modmat.matmul_mod(monomial_values(power_tables(s_exps, field), plane, p), coeffs, p)
    right = monomial_values(power_tables(t_exps, field), plane, p).T
    step = max(1, CHUNK_ROWS // len(plane))
    return len(plane) ** 2 + sum(
        int(lookup(character, modmat.matmul_mod(left[lo : lo + step], right, p), p).sum())
        for lo in range(0, len(plane), step)
    )


def verra_counts(g: HomPoly, primes: Sequence[int], budget: int = 2_000_000) -> list[VerraReport]:
    """Counts of the branched double cover of P^2 x P^2 and of the two
    determinant covers, with the residuals tying them together: X minus
    each route of the `verra` derivation at L = p, and Y1 - Y2.  The X count
    walks the #P^2(F_p)^2 pairs (s, t); a prime with more than `budget` of
    them raises BudgetExceededError before any prime is counted."""
    validate_verra_form(g)
    for p in primes:
        pairs = projective_size(2, p) ** 2
        if pairs > budget:
            raise BudgetExceededError(
                f"the X count walks P^2(F_{p}) x P^2(F_{p}), which has {pairs} points, over the budget of {budget}"
            )
    first, second = _verra_fibrations(g)
    verra, x = derive("verra"), GRExpr.atom("X")
    residuals = (x - verra.route_a, x - verra.route_b, GRExpr.atom("Y1") - GRExpr.atom("Y2"))
    reports = []
    for p in primes:
        field = PrimeField(p)
        x_count = _verra_x_count(g, field)
        y1, c1 = _double_cover_count(first, field)
        y2, c2 = _double_cover_count(second, field)
        r1, r2, dy = (r.evaluate(p, {"X": x_count, "Y1": y1, "Y2": y2}) for r in residuals)
        reports.append(
            VerraReport(
                p=p,
                x_count=x_count,
                y1_count=y1,
                y2_count=y2,
                residual_first=r1,
                residual_second=r2,
                y_difference=dy,
                corank2_first=c1,
                corank2_second=c2,
            )
        )
    return reports
