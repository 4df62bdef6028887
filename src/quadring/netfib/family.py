"""Nets and pencils of quadrics: the integer family, its fibers over P^m,
the base locus X, and the rational-level regularity and line checks.

A QuadricNet holds m+1 integer symmetric (n+2) x (n+2) Gram matrices
M_0..M_m; the fiber over a base point w is M(w) = sum w_i M_i.  Keeping the
matrices over Z lets one net be reduced at many primes; primes where the
reduction misbehaves (corank >= 2 fibers, regularity violations) are meant
to be skipped and reported by callers, not patched over.

The geometric conditions "X is smooth" and "no line through P over the
algebraic closure" are only ever tested at the F_p-rational level here, and
the reports say so: they certify the absence of F_p-rational violations,
nothing more.  The relation residuals computed in `relations` fail loudly
if a geometric hypothesis actually fails, which is the compensating check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import InputError, json_int
from ..gfp import (
    PrimeField,
    ProjPoint,
    canonical_point,
    enumerate_projective,
    projective_rows_where,
)
from .. import modmat
from ..quadform import GramMatrix, count_projective_points, form_values

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

    def fiber_matrix(self, s: Sequence[int], field: PrimeField) -> GramMatrix:
        """Gram matrix of the fiber over s, at the canonical representative."""
        rep = canonical_point(s, field)
        p = field.p
        size = self.fiber_size
        rows = [
            tuple(
                sum(rep[k] * self.matrices[k].entries[i][j] for k in range(self.m + 1)) % p
                for j in range(size)
            )
            for i in range(size)
        ]
        return GramMatrix(tuple(rows))

    def fibers(self, field: PrimeField) -> Iterator[GramMatrix]:
        """The fiber Gram matrix over each point of P^m(F_p), in canonical
        order."""
        for s in enumerate_projective(self.m, field):
            yield self.fiber_matrix(s, field)

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

    The scan is the bounded-chunk walk of `projective_rows_where`, split
    into one index range per job; the result does not depend on `jobs`.
    """

    def on_x(rows: np.ndarray) -> np.ndarray:
        mask = np.ones(len(rows), dtype=bool)
        for mat in net.matrices:
            mask &= form_values(rows, mat, field) == 0
        return mask

    rows = projective_rows_where(net.n + 1, field, on_x, budget, jobs)
    return list(map(tuple, rows.tolist()))


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the F_p-rational regularity scan.

    HEURISTIC: `regular` certifies that no F_p-rational radical vector of a
    degenerate fiber lies on the base locus X; geometric smoothness of X is
    not certified.  `corank2_found` reports fibers of corank >= 2 (these
    make the discriminant curve and the double cover singular).  `flat` is
    the corank < n+2 check (no fiber is the zero quadric).
    """

    p: int
    regular: bool
    corank2_found: bool
    flat: bool
    violations: tuple[tuple[ProjPoint, ProjPoint], ...]
    corank_histogram: dict[int, int]


def regularity_check(net: QuadricNet, field: PrimeField) -> RegularityReport:
    """Scan every fiber; for each radical vector u of a degenerate fiber,
    verify some form of the net is nonzero on u."""
    p = field.p
    size = net.fiber_size
    violations: list[tuple[ProjPoint, ProjPoint]] = []
    corank2 = False
    flat = True
    hist: dict[int, int] = {}
    for s in enumerate_projective(net.m, field):
        fib = net.fiber_matrix(s, field)
        kernel = modmat.kernel_basis(fib.entries, size, field)
        c = len(kernel)
        hist[c] = hist.get(c, 0) + 1
        if c == 0:
            continue
        if c >= 2:
            corank2 = True
        if c == size:
            flat = False
        for coeffs in enumerate_projective(c - 1, field):
            u = tuple(
                sum(coeffs[t] * kernel[t][i] for t in range(c)) % p for i in range(size)
            )
            if all(mat.q(u, field) == 0 for mat in net.matrices):
                violations.append((s, u))
    return RegularityReport(
        p=p,
        regular=not violations,
        corank2_found=corank2,
        flat=flat,
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
    being the lift with 0 in the pivot slot.  HEURISTIC for the geometric
    no-line condition: a line defined only over an extension field leaves
    no trace here.
    """
    p = field.p
    rep = canonical_point(point, field)
    if any(mat.q(rep, field) != 0 for mat in net.matrices):
        raise InputError("point does not lie on the base locus X")
    pivot = next(i for i, x in enumerate(rep) if x != 0)
    rep_vec = np.array(rep, dtype=np.int64)

    def on_line(dirs: np.ndarray) -> np.ndarray:
        lifted = np.insert(dirs, pivot, 0, axis=1)
        mask = np.ones(len(dirs), dtype=bool)
        for mat in net.matrices:
            mask &= (lifted @ (mat.to_array() % p) @ rep_vec) % p == 0
            mask &= form_values(lifted, mat, field) == 0
        return mask

    # P(V/<P>) = P^n
    dirs = projective_rows_where(net.fiber_size - 2, field, on_line, budget)
    return list(map(tuple, dirs.tolist()))


def count_total_space(net: QuadricNet, field: PrimeField) -> int:
    """#Q(F_p): sum of fiber quadric counts over the base P^m(F_p)."""
    return sum(count_projective_points(g, field) for g in net.fibers(field))
