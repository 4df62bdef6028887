"""Per-prime residual checks tying together the counts of X, Q, the reduced
family and the double cover.

Each residual is a `grothring` identity in the atoms X, Q, Qbar and Y, read
at L = p on the measured counts (those in Qbar only when a point is given):

  (n, m) = (4, 2), three quadrics in P^5, X a degree-8 surface:
    R1 = Q - rule_family_total(X, 4, 2)             = -p^2 R4
    R2 = Qbar - route A of theorem-main (blowup)    = -p R4
    R3 = Qbar - route B of theorem-main (cover)     = 0 by construction
    R4 = X - Y                                      the independent one

  (n, m) = (2, 1), two quadrics in P^3, X a degree-4 curve:
    R1 = Q - rule_family_total(X, 2, 1)             = -p R4
    R2 = Qbar - Y                                   = 0 by construction
    R3 = Q - route B of corollary-m1 (reduction)    = 0 by construction
    R4 = X - Y

The right column holds at a prime that is not skipped: Q, Qbar and Y read
the net's one fiber table, so only R4 checks an independent count, X's.

Primes with a `RegularityReport.skip_reason` (a zero fiber, a fiber of
corank >= 2 or a failed rational regularity scan) are reported as skipped:
the cover there is singular and the identities are not expected, which
matches the policy of skipping primes that divide bad behavior.  A
rational line through P is *not* a skip: the residuals are still computed,
the line is reported as a flag, and the prime does not pass.  Note that
for a regular net the R2 count is blind to rational lines through P: the
line direction acquires a P^2 fiber in the reduced family while the
projection contracts the line's p points, and the two effects cancel
exactly, so the flag rather than the residual carries that diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

from ..errors import InputError
from ..gfp import PrimeField, canonical_point, projective_size, size_within_budget
from ..grothring import GRExpr, derive, rule_family_total
from .family import (
    QuadricNet,
    count_total_space,
    lines_through_point,
    points_on_X,
    regularity_check,
)
from .reduction import ReducedFamily, count_double_cover, count_reduced_family, hyperbolic_reduce_family

X, Q, QBAR, Y = (GRExpr.atom(a) for a in ("X", "Q", "Qbar", "Y"))

# shape -> (derivation, its R2 and R3); read per report, so that an edit to a
# grothring rule reaches `count`
_ROUTES = {
    (4, 2): ("theorem-main", lambda d: {"R2": QBAR - d.route_a, "R3": QBAR - d.route_b}),
    (2, 1): ("corollary-m1", lambda d: {"R2": QBAR - Y, "R3": Q - d.route_b}),
}
SUPPORTED_SHAPES = tuple(_ROUTES)


@dataclass(frozen=True)
class CountReport:
    """Counts, residuals and flags for one net at one prime."""

    p: int
    n: int
    m: int
    skip_reason: str | None = None
    point: tuple[int, ...] | None = None
    x_count: int | None = None
    q_count: int | None = None
    qbar_count: int | None = None
    y_count: int | None = None
    residuals: dict[str, int] = dc_field(default_factory=dict)
    corank2_found: bool = False
    regularity_violation: bool = False
    line_through_point_found: bool = False
    flat: bool = True

    @property
    def skipped(self) -> bool:
        return self.skip_reason is not None

    @property
    def passed(self) -> bool:
        return all(v == 0 for v in self.residuals.values()) and not self.line_through_point_found

    def text_line(self) -> str:
        if self.skipped:
            return f"p={self.p} SKIPPED ({self.skip_reason})"
        counts = f"X={self.x_count} Q={self.q_count} Qbar={self.qbar_count} Y={self.y_count}"
        residuals = " ".join(f"{k}={v}" for k, v in sorted(self.residuals.items()))
        flags = " flags=line-through-point" if self.line_through_point_found else ""
        return f"p={self.p} {counts} {residuals}{flags}"

    def to_document(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "m": self.m,
            "skipped": self.skipped,
            "skip_reason": self.skip_reason,
            "point": list(self.point) if self.point is not None else None,
            "counts": {
                "X": self.x_count,
                "Q": self.q_count,
                "Qbar": self.qbar_count,
                "Y": self.y_count,
            },
            "projective_terms": {
                f"P{d}": projective_size(d, self.p) for d in range(1, self.n + 2)
            },
            "residuals": dict(sorted(self.residuals.items())),
            "flags": {
                "corank2_found": self.corank2_found,
                "regularity_violation": self.regularity_violation,
                "line_through_point_found": self.line_through_point_found,
                "flat": self.flat,
            },
        }


def _report_for_prime(
    net: QuadricNet,
    point: Sequence[int] | None,
    reduced: ReducedFamily | None,
    field: PrimeField,
    budget: int,
    jobs: int,
) -> CountReport:
    p = field.p
    reg = regularity_check(net, field, budget=budget)
    base = dict(
        p=p,
        n=net.n,
        m=net.m,
        corank2_found=reg.corank2_found,
        regularity_violation=not reg.regular,
        flat=reg.flat,
    )
    if reg.skip_reason is not None:
        return CountReport(skip_reason=reg.skip_reason, **base)

    rep = None if point is None else canonical_point(point, field)  # primitive, so nonzero mod p
    # one line scan per prime: its directions are the line term of the X
    # count by projection from the point, and they set the line flag; with
    # the reduction they read one `split_at` of the integer point
    lines = None if rep is None else lines_through_point(net, point, field, budget=budget)
    counts = {
        "X": len(points_on_X(net, field, budget=budget, jobs=jobs, point=point, lines=lines)),
        "Q": count_total_space(net, field),
        "Y": count_double_cover(net, field),
    }
    if rep is not None:
        counts["Qbar"] = count_reduced_family(reduced, field)
    derivation, routes = _ROUTES[(net.n, net.m)]
    identities = {"R1": Q - rule_family_total(X, net.n, net.m), **routes(derive(derivation)), "R4": X - Y}
    residuals = {name: e.evaluate(p, counts) for name, e in identities.items() if e.atoms() <= counts.keys()}

    return CountReport(
        point=rep,
        x_count=counts["X"],
        q_count=counts["Q"],
        qbar_count=counts.get("Qbar"),
        y_count=counts["Y"],
        residuals=residuals,
        line_through_point_found=bool(lines),
        **base,
    )


def verify_relations(
    net: QuadricNet,
    point: Sequence[int] | None,
    primes: Sequence[int],
    budget: int = 2_000_000,
    jobs: int = 1,
) -> list[CountReport]:
    """Residual reports for the net at each prime.

    The point, when given, must be a nonzero integer vector on X over Z,
    and the net is reduced along it once (`hyperbolic_reduce_family`,
    which checks both); None restricts the report to the point-free
    residuals.  Precondition failures surface as flags and skips.  A prime
    whose space the X scan walks holds more than `budget` points raises
    BudgetExceededError before any fiber is counted: P^(n-1)(F_p) when a
    point is given, since the scan projects from it (`points_on_X`), and
    P^n(F_p) otherwise.
    """
    if (net.n, net.m) not in SUPPORTED_SHAPES:
        raise InputError(
            f"relation checks support shapes {SUPPORTED_SHAPES}, got {(net.n, net.m)}"
        )
    reduced = None if point is None else hyperbolic_reduce_family(net, [list(point)])
    point = None if reduced is None else reduced.u_rows[0]  # primitive
    for p in primes:
        size_within_budget(net.n - (point is not None), p, budget)  # the X scan's space
    return [_report_for_prime(net, point, reduced, PrimeField(p), budget, jobs) for p in primes]
