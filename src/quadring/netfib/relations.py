"""Per-prime residual checks tying together the counts of X, Q, the reduced
family and the double cover.

Supported family shapes and their residuals (pi(d) = #P^d(F_p)):

  (n, m) = (4, 2), three quadrics in P^5, X a degree-8 surface:
    R1 = #Q    - (pi(5) * pi(1) + #X * p^2)        scissor count of Q, unconditional
    R2 = #Qbar - (pi(4) + p^2 + #X * p)            blowup model; needs no line through P
    R3 = #Qbar - (pi(2) * (1 + p^2) + #Y * p)      cover count; needs corank <= 1 only
    R4 = #X - #Y

  (n, m) = (2, 1), two quadrics in P^3, X a degree-4 curve:
    R1 = #Q    - (pi(3) + #X * p)
    R2 = #Qbar - #Y                                reduced 0-dim family vs cover
    R3 = #Q    - (pi(1) * (1 + p^2) + #Y * p)
    R4 = #X - #Y

Primes where a fiber has corank >= 2 or the rational regularity scan fails
are reported as skipped: the cover there is singular and the identities are
not expected, which matches the policy of skipping primes that divide bad
behavior.  A rational line through P is *not* a skip: the residuals are
still computed and the line is reported as a flag.  Note that for a
regular net the R2 count is blind to rational lines through P: the line
direction acquires a P^2 fiber in the reduced family while the projection
contracts the line's p points, and the two effects cancel exactly, so the
flag rather than the residual carries that diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

from ..errors import InputError
from ..gfp import PrimeField, canonical_point, projective_size, size_within_budget
from .family import (
    QuadricNet,
    count_total_space,
    lines_through_point,
    points_on_X,
    regularity_check,
)
from .reduction import ReducedFamily, count_double_cover, count_reduced_family, hyperbolic_reduce_family

SUPPORTED_SHAPES = ((4, 2), (2, 1))


@dataclass(frozen=True)
class CountReport:
    """Counts, residuals and flags for one net at one prime."""

    p: int
    n: int
    m: int
    skipped: bool = False
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

    def all_zero(self) -> bool:
        return bool(self.residuals) and all(v == 0 for v in self.residuals.values())

    def flagged(self) -> bool:
        return (
            self.corank2_found
            or self.regularity_violation
            or self.line_through_point_found
            or not self.flat
        )

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
    if reg.corank2_found or not reg.regular or not reg.flat:
        reason = []
        if not reg.flat:
            reason.append("zero fiber (not flat)")
        if reg.corank2_found:
            reason.append("fiber of corank >= 2")
        if not reg.regular:
            reason.append("rational regularity violation")
        return CountReport(skipped=True, skip_reason="; ".join(reason), **base)

    rep = None
    if point is not None:
        try:
            rep = canonical_point(point, field)
        except ValueError:
            return CountReport(
                skipped=True, skip_reason=f"point vanishes mod {p}", **base
            )

    x_points = points_on_X(net, field, budget=budget, jobs=jobs)
    x = len(x_points)
    q = count_total_space(net, field)
    y = count_double_cover(net, field)

    line_found = False
    qbar = None
    if rep is not None:
        line_found = bool(lines_through_point(net, rep, field, budget=budget))
        qbar = count_reduced_family(reduced, field)

    pi = lambda d: projective_size(d, p)
    residuals: dict[str, int] = {}
    if (net.n, net.m) == (4, 2):
        residuals["R1"] = q - (pi(5) * pi(1) + x * p**2)
        if qbar is not None:
            residuals["R2"] = qbar - (pi(4) + p**2 + x * p)
            residuals["R3"] = qbar - (pi(2) * (1 + p**2) + y * p)
        residuals["R4"] = x - y
    else:  # (2, 1)
        residuals["R1"] = q - (pi(3) + x * p)
        if qbar is not None:
            residuals["R2"] = qbar - y
        residuals["R3"] = q - (pi(1) * (1 + p**2) + y * p)
        residuals["R4"] = x - y

    return CountReport(
        point=rep,
        x_count=x,
        q_count=q,
        qbar_count=qbar,
        y_count=y,
        residuals=residuals,
        line_through_point_found=line_found,
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

    The point, when given, must be a nonzero integer vector on X over Z
    (used at every prime, so it lies on X mod p wherever it does not vanish
    mod p), and the net is reduced along it once, over Z; None restricts
    the report to the point-free residuals.  Precondition failures surface
    as flags and skips; a prime whose P^n(F_p), the space the X scan walks,
    holds more than `budget` points raises BudgetExceededError before any
    fiber is counted.
    """
    if (net.n, net.m) not in SUPPORTED_SHAPES:
        raise InputError(
            f"relation checks support shapes {SUPPORTED_SHAPES}, got {(net.n, net.m)}"
        )
    if point is not None:
        if len(point) != net.fiber_size:
            raise InputError(f"point has length {len(point)}, expected {net.fiber_size}")
        if not any(point):
            raise InputError("the zero vector is not a point")
        bad = [i for i, mat in enumerate(net.matrices) if mat.q(point) != 0]
        if bad:
            raise InputError(f"point is not on X over Z (forms {bad} do not vanish)")
    for p in primes:
        size_within_budget(net.n, p, budget)  # the X scan's space
    reduced = None if point is None else hyperbolic_reduce_family(net, [list(point)])
    return [
        _report_for_prime(net, point, reduced, PrimeField(p), budget, jobs) for p in primes
    ]
