"""Sparse homogeneous multivariate polynomials over Z, and determinants of
matrices of linear forms.

Coefficients are arbitrary-precision Python ints: the determinant of a 6x6
matrix of small-entry linear forms already overflows 64 bits, and exactness
here is non-negotiable.  Terms are stored as an exponent-vector map with no
zero coefficients.  Evaluation optionally reduces mod p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError
from .gfp import PrimeField

Exponents = tuple[int, ...]


def _normalized(terms: Mapping[Exponents, int]) -> dict[Exponents, int]:
    return {e: c for e, c in sorted(terms.items()) if c != 0}


@dataclass(frozen=True)
class HomPoly:
    """A homogeneous polynomial: exponent vectors (summing to `degree`) to
    nonzero integer coefficients."""

    num_vars: int
    degree: int
    terms: dict[Exponents, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _normalized(self.terms))
        for exps, _ in self.terms.items():
            if len(exps) != self.num_vars or any(e < 0 for e in exps):
                raise InputError(f"bad exponent vector {exps} for {self.num_vars} vars")
            if sum(exps) != self.degree:
                raise InputError(
                    f"exponents {exps} sum to {sum(exps)}, expected degree {self.degree}"
                )

    @classmethod
    def zero(cls, num_vars: int, degree: int = 0) -> "HomPoly":
        return cls(num_vars, degree, {})

    @classmethod
    def monomial(cls, num_vars: int, exps: Sequence[int], coeff: int = 1) -> "HomPoly":
        exps = tuple(int(e) for e in exps)
        return cls(num_vars, sum(exps), {exps: int(coeff)})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "HomPoly":
        exps = tuple(1 if i == index else 0 for i in range(num_vars))
        return cls(num_vars, 1, {exps: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if self.num_vars != other.num_vars:
            raise InputError("cannot add polynomials in different variable counts")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise InputError("cannot add homogeneous polynomials of different degree")
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) + c
        return HomPoly(self.num_vars, self.degree, acc)

    def __neg__(self) -> "HomPoly":
        return HomPoly(self.num_vars, self.degree, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __mul__(self, other: "HomPoly") -> "HomPoly":
        if self.num_vars != other.num_vars:
            raise InputError("cannot multiply polynomials in different variable counts")
        acc: dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return HomPoly(self.num_vars, self.degree + other.degree, acc)

    def scale(self, c: int) -> "HomPoly":
        return HomPoly(self.num_vars, self.degree, {e: k * c for e, k in self.terms.items()})

    def evaluate(self, point: Sequence[int], field: PrimeField | None = None) -> int:
        """Exact value at the point, reduced mod p when a field is given."""
        if len(point) != self.num_vars:
            raise InputError(
                f"point has {len(point)} coordinates, polynomial has {self.num_vars} variables"
            )
        total = 0
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, exps):
                if e:
                    v *= x**e
            total += v
        return total % field.p if field is not None else total

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for exps, coeff in self.terms.items():
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e
            )
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def evaluate_on_array(f: HomPoly, points: np.ndarray, field: PrimeField) -> np.ndarray:
    """Values of f mod p at every row of `points` (int64, one point per row).

    Coefficients and coordinates are reduced mod p first, and each term
    takes one coordinate factor at a time, reduced after every product, so
    no product exceeds (p - 1)^2 < 2^62 and none overflows for p < 2^31.
    """
    p = field.p
    # contiguous columns: faster products than strided ones, same memory
    cols = [points[:, i] % p for i in range(points.shape[1])]
    vals = np.zeros(len(points), dtype=np.int64)
    for exps, coeff in f.terms.items():
        term = np.full(len(points), coeff % p, dtype=np.int64)
        for i, e in enumerate(exps):
            for _ in range(e):
                term *= cols[i]
                term %= p
        vals += term
        vals %= p
    return vals


def determinant_of_linear_matrix(matrices: Sequence[Sequence[Sequence[int]]]) -> HomPoly:
    """det(sum_k s_k M_k) as an exact degree-N homogeneous polynomial in
    s_0..s_m, for m+1 square N x N integer matrices M_k (symmetric or not).

    Laplace expansion with memoization on column subsets: O(2^N) sparse
    polynomial combinations, fine for the sizes used here (N <= 8).
    """
    nvars = len(matrices)
    n = len(matrices[0]) if matrices else 0
    if nvars == 0 or any(len(mat) != n or any(len(row) != n for row in mat) for mat in matrices):
        raise InputError("expected one or more square matrices of the same size")
    units = [tuple(1 if k == v else 0 for k in range(nvars)) for v in range(nvars)]

    def entry_poly(i: int, j: int) -> HomPoly:
        return HomPoly(nvars, 1, {units[v]: int(mat[i][j]) for v, mat in enumerate(matrices)})

    # minors[mask] = determinant of rows 0..popcount(mask)-1 on columns in mask
    minors: dict[int, HomPoly] = {0: HomPoly(nvars, 0, {(0,) * nvars: 1})}
    for r in range(n):
        nxt: dict[int, HomPoly] = {}
        for mask, minor in minors.items():
            if minor.is_zero():
                continue
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    continue
                entry = entry_poly(r, c)
                if entry.is_zero():
                    continue
                # placing column c at row r inverts against every used column above c
                sign = -1 if (mask >> (c + 1)).bit_count() % 2 else 1
                contrib = entry.scale(sign) * minor
                key = mask | bit
                nxt[key] = nxt[key] + contrib if key in nxt else contrib
        minors = nxt
        if not minors:
            return HomPoly.zero(nvars, n)
    return minors.get((1 << n) - 1, HomPoly.zero(nvars, n))
