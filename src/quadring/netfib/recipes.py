"""Counting recipes for two classical double-cover setups: cubic fourfolds
containing a plane, and double covers of P^2 x P^2 branched in a (2,2)
divisor.

Cubic with a plane.  For a cubic form F in x0..x5 lying in the ideal
(x3, x4, x5), projecting the blowup of the plane {x3 = x4 = x5 = 0} to
P^2_(x3:x4:x5) fibers it into quadric surfaces: substituting
(x3, x4, x5) = t * (s3, s4, s5) turns F into t * G_s(y0, y1, y2, t) with
G_s a quadratic form in (y, t) whose Gram entries are polynomials in s (the
yy block linear, the yt entries quadratic, the tt entry cubic).  Scaling
the representative of s rescales t, so fiber counts and determinant
characters are representative-independent.  The expected count identity is

    #X = 1 + p^2 + p^4 + p * #Y

with #Y the determinant double cover count of the fibration.  It holds when
every fiber has corank <= 1 *and* X is smooth along the plane.  On the plane
every partial derivative of F but d/dx3, d/dx4 and d/dx5 vanishes, and
d/dx_k restricts to the conic Q_k(y, 0) of the monomials x_k * y^e, so X is
singular at a point of the plane exactly where the three conics share a
zero; each such F_p-point moves the residual by -p^2.  Both hypotheses are
checked at the rational level only, and each has a flag in the report:
corank by `corank2_found`, smoothness along the plane by
`singular_on_plane`.  `random_cubic_with_plane` returns only cubics that
raise neither flag.

Verra setup.  For a (2,2) form G on P^2 x P^2, the double cover
X -> P^2 x P^2 branched in {G = 0} fibers over the first factor into the
quadric surfaces {w^2 = G(s, t)} with Gram diag(1) + (-Gram_t(G(s, .))),
and symmetrically over the second factor.  Both fibrations produce a
degree-2 double cover, and when each has fibers of corank <= 1,

    #X = (p^2 + 1) * #P^2 + p * #Y_i     for i = 1, 2,

forcing #Y_1 = #Y_2.

All Gram matrices here are kept doubled (polarization matrices) to stay
integral; doubling multiplies determinants by even powers of 2 and leaves
ranks, characters, and point counts unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import InputError
from ..gfp import (
    PrimeField,
    enumerate_projective,
    legendre_character,
    projective_points_array,
    projective_rows_where,
    projective_size,
)
from ..mpoly import HomPoly, evaluate_on_array
from ..quadform import GramMatrix, classify, double_cover_points

CUBIC_VARS = 6
PLANE_VARS = (3, 4, 5)


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


def cubic_fiber_grams(f: HomPoly) -> list[list[HomPoly]]:
    """Doubled Gram entries of the induced quadric fibration, as polynomials
    in (s3, s4, s5).

    Coordinates on the fiber are (y0, y1, y2, t); entry degrees in s are 1
    on the yy block, 2 on the yt border, 3 at tt.
    """
    validate_cubic_with_plane(f)
    entries: list[list[dict]] = [[{} for _ in range(4)] for _ in range(4)]

    def bump(i: int, j: int, s_exps: tuple[int, int, int], c: int) -> None:
        acc = entries[i][j]
        acc[s_exps] = acc.get(s_exps, 0) + c

    for exps, coeff in f.terms.items():
        y_part = exps[:3]
        s_part = (exps[3], exps[4], exps[5])
        k = sum(s_part)
        if k == 1:
            # quadratic in y: doubled Gram gets 2c on the diagonal, c off it
            ys = [i for i in range(3) for _ in range(y_part[i])]
            a, b = ys[0], ys[1]
            if a == b:
                bump(a, a, s_part, 2 * coeff)
            else:
                bump(a, b, s_part, coeff)
                bump(b, a, s_part, coeff)
        elif k == 2:
            a = next(i for i in range(3) if y_part[i])
            bump(a, 3, s_part, coeff)
            bump(3, a, s_part, coeff)
        else:  # k == 3, pure t^2 term
            bump(3, 3, s_part, 2 * coeff)

    return [
        [HomPoly(3, deg, entries[i][j]) for j, deg in enumerate(row_degs)]
        for i, row_degs in enumerate(
            [(1, 1, 1, 2), (1, 1, 1, 2), (1, 1, 1, 2), (2, 2, 2, 3)]
        )
    ]


def _gram_at(entry_polys: Sequence[Sequence[HomPoly]], s: Sequence[int], field: PrimeField) -> GramMatrix:
    rows = [
        tuple(poly.evaluate(s, field) for poly in row) for row in entry_polys
    ]
    return GramMatrix(tuple(rows))


def _double_cover_count(entry_polys: Sequence[Sequence[HomPoly]], field: PrimeField) -> tuple[int, bool]:
    """#Y(F_p) of a quadric fibration over P^2 given by its Gram entry
    polynomials, and whether some fiber has corank >= 2."""
    y = 0
    corank2 = False
    for s in enumerate_projective(2, field):
        gram = _gram_at(entry_polys, s, field)
        corank2 |= classify(gram, field).corank >= 2
        y += double_cover_points(gram, field)
    return y, corank2


def _singular_on_plane(f: HomPoly, field: PrimeField) -> bool:
    """Whether the cubic is singular at an F_p-point of the plane
    x3 = x4 = x5 = 0, i.e. whether its three plane conics (the coefficients
    of x3, x4 and x5 at x3 = x4 = x5 = 0) share an F_p-zero on P^2."""
    conics = [
        HomPoly(3, 2, {e[:3]: c for e, c in f.terms.items() if e[k] == 1 and sum(e[3:]) == 1})
        for k in PLANE_VARS
    ]

    def common_zero(rows: np.ndarray) -> np.ndarray:
        mask = np.ones(len(rows), dtype=bool)
        for conic in conics:
            mask &= evaluate_on_array(conic, rows, field) == 0
        return mask

    return len(projective_rows_where(2, field, common_zero)) > 0


@dataclass(frozen=True)
class CubicReport:
    """Counts for one prime of the plane-projection recipe."""

    p: int
    x_count: int
    y_count: int
    residual: int
    corank2_found: bool
    singular_on_plane: bool

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
    """Per-prime residual #X - (1 + p^2 + p^4 + p * #Y) for a cubic through
    the plane x3 = x4 = x5 = 0; expected 0 whenever corank <= 1 everywhere
    and the cubic is smooth along the plane, the two hypotheses the report
    flags."""
    grams = cubic_fiber_grams(f)
    reports = []
    for p in primes:
        field = PrimeField(p)
        x_count = len(
            projective_rows_where(
                5, field, lambda rows: evaluate_on_array(f, rows, field) == 0, budget
            )
        )
        y_count, corank2 = _double_cover_count(grams, field)
        residual = x_count - (1 + p**2 + p**4 + p * y_count)
        reports.append(
            CubicReport(
                p=p,
                x_count=x_count,
                y_count=y_count,
                residual=residual,
                corank2_found=corank2,
                singular_on_plane=_singular_on_plane(f, field),
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


def swap_verra_factors(g: HomPoly) -> HomPoly:
    """The same form with the two P^2 factors exchanged."""
    return HomPoly(
        6, 4, {exps[3:] + exps[:3]: c for exps, c in g.terms.items()}
    )


def _verra_quadric_entries(g: HomPoly) -> list[list[HomPoly]]:
    """Doubled Gram entries, in s, of the quadric fibration over the first
    factor: coordinates (w, t0, t1, t2), form w^2 - G(s, t)."""
    validate_verra_form(g)
    two = {(0, 0, 0): 2}
    zero = {}
    entries: list[list[dict]] = [
        [dict(two), dict(zero), dict(zero), dict(zero)],
        [dict(zero), {}, {}, {}],
        [dict(zero), {}, {}, {}],
        [dict(zero), {}, {}, {}],
    ]
    for exps, coeff in g.terms.items():
        s_part = exps[:3]
        t_part = exps[3:]
        ts = [i for i in range(3) for _ in range(t_part[i])]
        a, b = ts[0], ts[1]
        if a == b:
            acc = entries[1 + a][1 + a]
            acc[s_part] = acc.get(s_part, 0) - 2 * coeff
        else:
            for i, j in ((a, b), (b, a)):
                acc = entries[1 + i][1 + j]
                acc[s_part] = acc.get(s_part, 0) - coeff
    degs = [[0, 2, 2, 2], [2, 2, 2, 2], [2, 2, 2, 2], [2, 2, 2, 2]]
    return [
        [HomPoly(3, degs[i][j], entries[i][j]) for j in range(4)] for i in range(4)
    ]


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


def verra_counts(g: HomPoly, primes: Sequence[int]) -> list[VerraReport]:
    """Counts of the branched double cover of P^2 x P^2 and of the two
    determinant covers, with the residuals tying them together."""
    validate_verra_form(g)
    first = _verra_quadric_entries(g)
    second = _verra_quadric_entries(swap_verra_factors(g))
    reports = []
    for p in primes:
        field = PrimeField(p)
        chi = np.array([legendre_character(a, field) for a in range(p)])
        plane = projective_points_array(2, field)
        x_count = 0
        for s in plane:
            pairs = np.hstack((np.broadcast_to(s, plane.shape), plane))
            x_count += len(plane) + int(chi[evaluate_on_array(g, pairs, field)].sum())
        y1, c1 = _double_cover_count(first, field)
        y2, c2 = _double_cover_count(second, field)
        base = (p**2 + 1) * projective_size(2, p)
        reports.append(
            VerraReport(
                p=p,
                x_count=x_count,
                y1_count=y1,
                y2_count=y2,
                residual_first=x_count - (base + p * y1),
                residual_second=x_count - (base + p * y2),
                y_difference=y1 - y2,
                corank2_first=c1,
                corank2_second=c2,
            )
        )
    return reports
