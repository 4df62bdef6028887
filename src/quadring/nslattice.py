"""Rank-2 lattice discriminants and the generalized Pell equations
a^2 - d*b^2 = +-8 deciding whether a degree-8 surface and its degree-2
partner are actually isomorphic.

The discriminant of the rank-2 intersection data (H^2 = 8, C.H, C^2) is
d = (C.H)^2 - 8*C^2.  The parity criterion: the obstruction class vanishes
iff d = 1 mod 8 (equivalently, the surface carries a curve of odd degree).
The isomorphism criterion: the pair is isomorphic iff a^2 - d*b^2 = 8 or
a^2 - d*b^2 = -8 has an integer solution.  Square discriminants reduce to
a finite factor-pair search; for the rest the solver is exact:

  * d >= 65: one period of the continued fraction of sqrt(d) decides both
    signs.  A solution has gcd(a, b) = 1 or 2, since gcd^2 divides 8, so it
    is (p, q) with p^2 - d*q^2 = N or (2p, 2q) with p^2 - d*q^2 = N/4,
    gcd(p, q) = 1.  |N| and |N/4| are both below sqrt(d), so every such
    (p, q) is a convergent p_k/q_k.  Its value needs no big-int product:
    p_k^2 - d*q_k^2 = (-1)^(k+1) Q_(k+1), with Q the PQa denominator.  The
    values repeat with the period l of the expansion, their signs
    alternating with k; when l is odd the sign of a value flips from one
    period to the next.  Two periods therefore meet every value of either
    sign, and the first meeting is the least solution of its class, since
    later ones are multiplied by a unit and have larger q.  The walk of
    (P, Q) on small ints stops after one period: a value met at k in it is
    met again at k + l, with the opposite sign when l is odd, but then the
    palindrome Q_(k+1) = Q_(l-1-k) gives that sign already at l - 2 - k.
    Only the first, hence least, hit for +8 and for -8 builds its
    convergent, by a second walk up to it, so the walk keeps nothing per
    step: a value +-8 gives (p, q), a value +-2 gives (2p, 2q).
  * 1 < d < 65 nonsquare: the fundamental unit (t, u) of x^2 - d*y^2 = 1 is
    tiny here, and the classical bounds y <= u*sqrt(|N|/(2(t +- 1))) cap a
    direct scan.

Naive search cannot replace this: fundamental units grow exponentially
(d = 61 already needs u = 226153980), while the period scan stays tiny.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import isqrt
from typing import Iterator

from .errors import BudgetExceededError, InputError

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


def _pqa(d: int) -> Iterator[tuple[int, int]]:
    """The partial quotient a_k and the PQa denominator Q_k for k = 1, 2, ..
    of the continued fraction of sqrt(d), d nonsquare, on small ints and
    without end: the pairs repeat with the period l, and Q_l = 1."""
    a0 = isqrt(d)
    pp, qq = a0, d - a0 * a0
    while True:
        a = (a0 + pp) // qq
        yield a, qq
        pp = a * qq - pp
        qq = (d - pp * pp) // qq


def _pqa_period(d: int, budget: int) -> tuple[int, dict[int, tuple[int, int]]]:
    """The period l of the continued fraction of sqrt(d), d nonsquare, and
    the first k < l of each sign rhs = +-8 at which v_k = (-1)^(k+1) Q_(k+1)
    is +-8 or +-2: rhs -> (k, 1 for +-8 or 2 for +-2).  Keeps nothing per
    step, so memory stays flat.  Raises BudgetExceededError when l is over
    `budget` steps: l can reach about sqrt(d) log d."""
    first: dict[int, tuple[int, int]] = {}
    for k, (_, value) in zip(range(budget), _pqa(d)):
        if value == 1:
            return k + 1, first
        if value == 8 or value == 2:
            first.setdefault(8 if k % 2 else -8, (k, 1 if value == 8 else 2))
    raise BudgetExceededError(
        f"the period of the continued fraction of sqrt({d}) runs past the budget of {budget} PQa steps"
    )


def _convergent(d: int, k: int) -> tuple[int, int]:
    """The convergent (p_k, q_k) of the continued fraction of sqrt(d), from
    a second walk of `_pqa` up to k."""
    p_prev, q_prev, p_cur, q_cur = 1, 0, isqrt(d), 1
    for a, _ in islice(_pqa(d), k):
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
    return p_cur, q_cur


def pell_fundamental(d: int, budget: int = 2_000_000) -> tuple[int, int]:
    """The least (t, u) with t^2 - d*u^2 = 1, t + u*sqrt(d) > 1: the first
    convergent of value (-1)^(k+1) Q_(k+1) = 1, at the end of the first
    period l when l is even and of the second when l is odd.  Raises
    BudgetExceededError when l is over `budget` steps."""
    period, _ = _pqa_period(d, budget)
    return _convergent(d, period - 1 if period % 2 == 0 else 2 * period - 1)


def _solve_by_convergents(d: int, budget: int) -> dict[int, tuple[int, int] | None]:
    """Both signs for nonsquare d with sqrt(d) > 8, from one period l of the
    PQa recursion: v_k = (-1)^(k+1) Q_(k+1) at each k < l.  A second period
    would add no first hit: when l is odd, the sign-flipped twin of v_k at
    k + l is met already at l - 2 - k, since Q_(k+1) = Q_(l-1-k).
    The first hit of each sign is its least solution: q never falls along
    the walk, so only a doubled hit (2p_j, 2q_j) could be overtaken, and a
    later hit (p_k, q_k) of the same sign is at least two steps on (the
    signs of consecutive values alternate), so q_k >= q_(j+1) + q_j >=
    2 q_j.  Only that hit builds its convergent, by a second walk."""
    solutions = dict.fromkeys(ALLOWED_RHS)
    for rhs, (k, scale) in _pqa_period(d, budget)[1].items():
        p, q = _convergent(d, k)
        solutions[rhs] = (scale * p, scale * q)
    return solutions


def _solve_by_bounded_scan(d: int, rhs: int, budget: int) -> tuple[int, int] | None:
    """Decision for small nonsquare d via the fundamental-unit bound on b."""
    t, u = pell_fundamental(d, budget)
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


def _least_solutions(d: int, budget: int = 2_000_000) -> dict[int, tuple[int, int] | None]:
    """The minimal nonnegative solution (least b, then least a) of
    a^2 - d*b^2 = rhs for each rhs in ALLOWED_RHS, None where unsolvable;
    a nonsquare d walks at most `budget` PQa steps."""
    if isqrt(d) ** 2 == d:
        return {rhs: _solve_square(d, rhs) for rhs in ALLOWED_RHS}
    if d > 64:
        return _solve_by_convergents(d, budget)
    return {rhs: _solve_by_bounded_scan(d, rhs, budget) for rhs in ALLOWED_RHS}


def solve_pell_like(d: int, rhs: int) -> tuple[int, int] | None:
    """Exact decision of a^2 - d*b^2 = rhs for rhs in {8, -8}; returns a
    minimal nonnegative solution (least b, then least a) or None.  Raises
    BudgetExceededError when the period of sqrt(d) is over 2,000,000 steps."""
    if d <= 0:
        raise InputError(f"discriminant must be positive, got {d}")
    if rhs not in ALLOWED_RHS:
        raise InputError(f"right-hand side must be one of {ALLOWED_RHS}")
    return _least_solutions(d)[rhs]


def classify_discriminant(d: int, budget: int = 2_000_000) -> DiscriminantVerdict:
    """Isomorphic when either sign is solvable (+8 reported first);
    otherwise the pair is nontrivially L-equivalent exactly when the
    obstruction dies (d = 1 mod 8), and obstructed otherwise.  Raises
    BudgetExceededError when the period of sqrt(d) is over `budget` steps."""
    if d < 1:
        raise InputError(f"discriminant must be positive, got {d}")
    for rhs, sol in _least_solutions(d, budget).items():
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


def classify_ns(ch: int, c2: int, budget: int = 2_000_000) -> DiscriminantVerdict:
    return classify_discriminant(discriminant(ch, c2), budget)
