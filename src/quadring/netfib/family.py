"""Nets and pencils of quadrics: the integer family, its fibers over P^m,
the base locus X, and the rational-level regularity and line checks.

A QuadricNet holds m+1 integer symmetric (n+2) x (n+2) Gram matrices
M_0..M_m; the fiber over a base point w is M(w) = sum w_i M_i.  Keeping the
matrices over Z lets one net be reduced at many primes; primes where the
reduction misbehaves (corank >= 2 fibers, regularity violations) are meant
to be skipped and reported by callers, not patched over.  `fibers` builds
the Grams of a chunk of base points with one exact `modmat.matmul_mod`, and
every count classifies them with one `quadform.classify_stack` call.

The geometric conditions "X is smooth" and "no line through P over the
algebraic closure" are only ever tested at the F_p-rational level here, and
the reports say so: they certify the absence of F_p-rational violations,
nothing more.  The relation residuals computed in `relations` fail loudly
if a geometric hypothesis actually fails, which is the compensating check.
Both are zero scans on a subspace (`quadform.zeros_on_span`), each charged
to `budget` for that subspace only.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import InputError, json_int
from ..gfp import PrimeField, ProjPoint, canonical_point
from .. import modmat
from ..quadform import FiberChunk, GramMatrix, classify_stack, common_zeros, fiber_classes, fiber_grams
from ..quadform import quadric_points, zeros_on_span

NET_FORMAT_VERSION = 1


@dataclass(frozen=True)
class QuadricNet:
    """A family of n-dimensional quadrics over P^m given by m+1 integer
    symmetric Gram matrices of size n+2."""

    n: int
    m: int
    matrices: tuple[GramMatrix, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 1:
            raise InputError(f"bad family shape n={self.n}, m={self.m}")
        if len(self.matrices) != self.m + 1:
            raise InputError(
                f"expected {self.m + 1} matrices for m={self.m}, got {len(self.matrices)}"
            )
        for mat in self.matrices:
            if mat.size != self.n + 2:
                raise InputError(
                    f"matrix size {mat.size} does not match n+2={self.n + 2}"
                )

    @property
    def fiber_size(self) -> int:
        return self.n + 2

    def fibers(self, field: PrimeField) -> Iterator[FiberChunk]:
        """(base rows w, stack of fiber Grams M(w) mod p) for each chunk of
        P^m(F_p), in canonical order, by the walk of `quadform.fiber_grams`."""
        size = self.fiber_size
        mats = modmat.residues([mat.entries for mat in self.matrices], field).reshape(self.m + 1, -1)
        return fiber_grams(self.m, field, lambda w: modmat.matmul_mod(w, mats, field.p).reshape(-1, size, size))

    def to_document(self, point: Sequence[int] | None = None) -> dict:
        doc = {
            "format_version": NET_FORMAT_VERSION,
            "n": self.n,
            "m": self.m,
            "matrices": [
                [x for row in mat.entries for x in row] for mat in self.matrices
            ],
        }
        if point is not None:
            doc["point"] = [int(x) for x in point]
        return doc

    @classmethod
    def from_document(cls, doc: dict) -> tuple["QuadricNet", tuple[int, ...] | None]:
        try:
            n = json_int(doc["n"], "n")
            m = json_int(doc["m"], "m")
            flat = doc["matrices"]
        except KeyError as exc:
            raise InputError(f"malformed net document: missing {exc}") from exc
        size = n + 2
        if not isinstance(flat, list) or len(flat) != m + 1:
            raise InputError(f"expected {m + 1} matrices, got {len(flat) if isinstance(flat, list) else 'non-list'}")
        mats = []
        for row_major in flat:
            if not isinstance(row_major, list) or len(row_major) != size * size:
                raise InputError(
                    f"each matrix must be a flat array of {size * size} integers"
                )
            rows = [
                tuple(json_int(row_major[i * size + j], "matrix entry") for j in range(size))
                for i in range(size)
            ]
            mats.append(GramMatrix(tuple(rows)))  # symmetry validated here
        point = doc.get("point")
        if point is not None:
            if not isinstance(point, list):
                raise InputError("point must be an array of integers")
            point = tuple(json_int(x, "point coordinate") for x in point)
            if len(point) != size:
                raise InputError(f"point has length {len(point)}, expected {size}")
        return cls(n=n, m=m, matrices=tuple(mats)), point


def load_net(path: str) -> tuple[QuadricNet, tuple[int, ...] | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read net file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("net file does not hold a JSON object")
    return QuadricNet.from_document(doc)


def points_on_X(
    net: QuadricNet,
    field: PrimeField,
    budget: int = 2_000_000,
    jobs: int = 1,
) -> list[ProjPoint]:
    """All canonical points of P^(n+1)(F_p) on which every form of the net
    vanishes, in canonical enumeration order.

    The scan is `quadform.common_zeros`, solved for the last coordinate t:
    it walks P^n in blocks of P^(n-2) x F_p^2 and the P^1 tail, solves the
    first form for t at every point u of a block, tests the other forms only
    at those roots, and adds e_last when every form's last diagonal entry
    is 0.  The prefix is split into one index range per job, and the result
    does not depend on `jobs`.  Raises BudgetExceededError when P^n(F_p) has
    more than `budget` points.
    """
    return list(map(tuple, common_zeros(net.matrices, field, budget, jobs).tolist()))


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the F_p-rational regularity scan.

    HEURISTIC: `regular` certifies that no F_p-rational radical vector of a
    degenerate fiber lies on the base locus X; geometric smoothness of X is
    not certified.  Each violation is (base point, canonical point of X in
    its fiber's radical).  `corank2_found` reports fibers of corank >= 2
    (these make the discriminant curve and the double cover singular).
    `flat` is the corank < n+2 check (no fiber is the zero quadric).
    """

    p: int
    regular: bool
    corank2_found: bool
    flat: bool
    violations: tuple[tuple[ProjPoint, ProjPoint], ...]
    corank_histogram: dict[int, int]


def regularity_check(net: QuadricNet, field: PrimeField, budget: int = 2_000_000) -> RegularityReport:
    """Classify every fiber; the points of X on the kernel of a degenerate
    fiber come from `quadform.zeros_on_span`, which raises BudgetExceededError
    when the kernel's projective space has more than `budget` points."""
    size = net.fiber_size
    violations: list[tuple[ProjPoint, ProjPoint]] = []
    coranks = []
    for rows, grams in net.fibers(field):
        coranks.append(size - classify_stack(grams, field.p)[0])
        degenerate = coranks[-1] > 0
        for s, gram in zip(rows[degenerate].tolist(), grams[degenerate].tolist()):
            kernel = modmat.kernel_basis(gram, size, field)
            violations += [(tuple(s), tuple(u)) for u in zeros_on_span(net.matrices, kernel, field, budget).tolist()]
    hist = dict(Counter(np.concatenate(coranks).tolist()))
    return RegularityReport(
        p=field.p,
        regular=not violations,
        corank2_found=max(hist) >= 2,
        flat=size not in hist,
        violations=tuple(violations),
        corank_histogram=hist,
    )


def lines_through_point(
    net: QuadricNet,
    point: Sequence[int],
    field: PrimeField,
    budget: int = 2_000_000,
) -> list[ProjPoint]:
    """Directions [v'] in P(V/<P>)(F_p) spanning with P a line inside X.

    The point's pivot coordinate is deleted to realize V/<P>; a direction
    v' qualifies when b(P, v'') = 0 and q(v'') = 0 for every form, v''
    being the lift with 0 in the pivot slot.  `quadform.zeros_on_span`
    scans the pivot-deleted forms on the kernel of the linear conditions,
    normally a P^1, and raises BudgetExceededError when that kernel's
    projective space has more than `budget` points.  HEURISTIC for the
    geometric no-line condition: a line defined only over an extension
    field leaves no trace here.
    """
    rep = canonical_point(point, field)
    if any(mat.q(rep, field) != 0 for mat in net.matrices):
        raise InputError("point does not lie on the base locus X")
    pivot = rep.index(1)
    kept = [i for i in range(net.fiber_size) if i != pivot]
    mats = modmat.residues([mat.entries for mat in net.matrices], field)
    linear = modmat.matmul_mod(mats, np.array(rep, dtype=np.int64), field.p)[:, kept]
    kernel = modmat.kernel_basis(linear, len(kept), field)
    quadratic = [GramMatrix.from_array(m[np.ix_(kept, kept)]) for m in mats]
    return list(map(tuple, zeros_on_span(quadratic, kernel, field, budget).tolist()))


def count_total_space(net: QuadricNet, field: PrimeField) -> int:
    """#Q(F_p): the fiber quadric counts summed over the base P^m(F_p), by
    the closed form on the fibers' ranks and signed characters."""
    return quadric_points(net.fiber_size, *fiber_classes(net.fibers(field), field.p), field.p)
