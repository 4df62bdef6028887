"""Rank-2 lattice discriminants and the generalized Pell equations
a^2 - d*b^2 = +-8 deciding whether a degree-8 surface and its degree-2
partner are actually isomorphic.

The discriminant of the rank-2 intersection data (H^2 = 8, C.H, C^2) is
d = (C.H)^2 - 8*C^2.  The parity criterion: the obstruction class vanishes
iff d = 1 mod 8 (equivalently, the surface carries a curve of odd degree).
The isomorphism criterion: the pair is isomorphic iff a^2 - d*b^2 = 8 or
a^2 - d*b^2 = -8 has an integer solution.  Square discriminants reduce to
a finite factor-pair search; for the rest the solver is exact:

  * d >= 65: |N| and |N/4| are both below sqrt(d), so every solution in
    lowest terms is a convergent of the continued fraction of sqrt(d);
    scanning two full periods of convergent values (together with doubled
    solutions of N/4 for the imprimitive class) decides solvability.
  * 1 < d < 65 nonsquare: the fundamental unit (t, u) of x^2 - d*y^2 = 1 is
    tiny here, and the classical bounds y <= u*sqrt(|N|/(2(t +- 1))) cap a
    direct scan.

Naive search cannot replace this: fundamental units grow exponentially
(d = 61 already needs u = 226153980), while the period scan stays tiny.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import InputError

ALLOWED_RHS = (8, -8)

ISOMORPHIC = "isomorphic"
NONTRIVIAL = "nontrivially-L-equivalent"
OBSTRUCTED = "brauer-obstructed"


def discriminant(ch: int, c2: int) -> int:
    """d = (C.H)^2 - 8*C^2 for the rank-2 intersection data."""
    return ch * ch - 8 * c2


def brauer_vanishes(d: int) -> bool:
    """Whether the 2-torsion obstruction class dies: d = 1 mod 8."""
    return d % 8 == 1


@dataclass(frozen=True)
class DiscriminantVerdict:
    d: int
    brauer_vanishes: bool
    solution: tuple[int, int, int] | None  # (a, b, rhs) with a^2 - d b^2 = rhs
    classification: str

    def to_document(self) -> dict:
        return {
            "d": self.d,
            "brauer_vanishes": self.brauer_vanishes,
            "solution": list(self.solution) if self.solution else None,
            "classification": self.classification,
        }


def _divisors(n: int) -> list[int]:
    n = abs(n)
    return [f for f in range(1, n + 1) if n % f == 0]


def _solve_square(d: int, rhs: int) -> tuple[int, int] | None:
    """d = e^2: factor (a - e*b)(a + e*b) = rhs over all signed divisor pairs."""
    e = isqrt(d)
    best = None
    for f in _divisors(rhs):
        for f1 in (f, -f):
            f2 = rhs // f1
            if (f1 + f2) % 2 or (f2 - f1) % 2:
                continue
            a = (f1 + f2) // 2
            eb = (f2 - f1) // 2
            if eb % e:
                continue
            cand = (abs(a), abs(eb // e))
            if best is None or (cand[1], cand[0]) < (best[1], best[0]):
                best = cand
    return best


def sqrt_cf_convergents(d: int):
    """Yield (p, q, Q) along two full periods of the continued fraction of
    sqrt(d) (d nonsquare); Q is the PQa denominator whose value 1 marks the
    end of a period."""
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise InputError(f"{d} is a perfect square")
    p_prev, q_prev = 1, 0
    p_cur, q_cur = a0, 1
    yield p_cur, q_cur, 1
    pp, qq = a0, d - a0 * a0
    completed = 0
    while completed < 2:
        a = (a0 + pp) // qq
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        pp = a * qq - pp
        qq = (d - pp * pp) // qq
        if qq == 1:
            completed += 1
        yield p_cur, q_cur, qq


def pell_fundamental(d: int) -> tuple[int, int]:
    """The least (t, u) with t^2 - d*u^2 = 1, t + u*sqrt(d) > 1."""
    for p, q, _ in sqrt_cf_convergents(d):
        if p * p - d * q * q == 1:
            return p, q
    raise AssertionError(f"no fundamental unit within two periods for d={d}")


def _solve_by_convergents(d: int, rhs: int) -> tuple[int, int] | None:
    """Decision for nonsquare d with sqrt(d) > |rhs|: scan two periods of
    convergents for values rhs (primitive class) and rhs/4 (doubling class)."""
    quarter = rhs // 4 if rhs % 4 == 0 else None
    candidates = []
    for p, q, _ in sqrt_cf_convergents(d):
        v = p * p - d * q * q
        if v == rhs:
            candidates.append((p, q))
        if quarter is not None and v == quarter:
            candidates.append((2 * p, 2 * q))
    if not candidates:
        return None
    return min(candidates, key=lambda ab: (ab[1], ab[0]))


def _solve_by_bounded_scan(d: int, rhs: int) -> tuple[int, int] | None:
    """Decision for small nonsquare d via the fundamental-unit bound on b."""
    t, u = pell_fundamental(d)
    if rhs > 0:
        b_max = isqrt((u * u * rhs) // (2 * (t + 1))) + 1
    else:
        b_max = isqrt((u * u * (-rhs)) // (2 * (t - 1))) + 1
    for b in range(0, b_max + 1):
        r = rhs + d * b * b
        if r < 0:
            continue
        a = isqrt(r)
        if a * a == r:
            return a, b
    return None


def solve_pell_like(d: int, rhs: int) -> tuple[int, int] | None:
    """Exact decision of a^2 - d*b^2 = rhs for rhs in {8, -8}; returns a
    minimal nonnegative solution (least b, then least a) or None."""
    if d <= 0:
        raise InputError(f"discriminant must be positive, got {d}")
    if rhs not in ALLOWED_RHS:
        raise InputError(f"right-hand side must be one of {ALLOWED_RHS}")
    if isqrt(d) ** 2 == d:
        return _solve_square(d, rhs)
    if d > 64:
        return _solve_by_convergents(d, rhs)
    return _solve_by_bounded_scan(d, rhs)


def classify_discriminant(d: int) -> DiscriminantVerdict:
    """Isomorphic when either sign is solvable; otherwise the pair is
    nontrivially L-equivalent exactly when the obstruction dies (d = 1 mod
    8), and obstructed otherwise."""
    if d < 1:
        raise InputError(f"discriminant must be positive, got {d}")
    for rhs in ALLOWED_RHS:
        sol = solve_pell_like(d, rhs)
        if sol is not None:
            return DiscriminantVerdict(
                d=d,
                brauer_vanishes=brauer_vanishes(d),
                solution=(sol[0], sol[1], rhs),
                classification=ISOMORPHIC,
            )
    if brauer_vanishes(d):
        return DiscriminantVerdict(d, True, None, NONTRIVIAL)
    return DiscriminantVerdict(d, False, None, OBSTRUCTED)


def classify_ns(ch: int, c2: int) -> DiscriminantVerdict:
    return classify_discriminant(discriminant(ch, c2))


def enumerate_nontrivial(limit: int) -> list[int]:
    """All d <= limit classified nontrivially-L-equivalent, ascending."""
    if limit < 1:
        raise InputError(f"limit must be at least 1, got {limit}")
    return [
        d
        for d in range(1, limit + 1)
        if d % 8 == 1 and classify_discriminant(d).classification == NONTRIVIAL
    ]
