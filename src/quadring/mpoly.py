"""Sparse homogeneous multivariate polynomials over Z, the cubic and (2,2)
forms that `cubic` and `verra` read, and values mod p on every row of an
array: dense, the values of a list of monomials read from the powers of F_p
that a walk tabulates once (`power_tables`, `monomial_values`), for the
recipes' fiber Grams and (2,2) form, or sparse, term by term, for the
cubic's few-term forms (`evaluate_on_array`).

Coefficients are arbitrary-precision Python ints, so sums and products of
forms stay exact.  Terms are stored as an exponent-vector map with no zero
coefficients.  Evaluation optionally reduces mod p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError
from .gfp import PrimeField
from .modmat import _mod

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


def power_tables(exps: np.ndarray, field: PrimeField) -> np.ndarray:
    """The powers of F_p that the monomials x^e read, for the exponent
    vectors e in the columns of `exps` (n, k): an int64 array (n, p, k)
    whose entry (i, v, c) is v^exps[i, c] mod p, 0^0 = 1.  A walk builds it
    once and reads it at every chunk with `monomial_values`."""
    p = field.p
    powers = np.ones((int(exps.max(initial=0)) + 1, p), dtype=np.int64)
    for k in range(1, len(powers)):
        powers[k] = _mod(powers[k - 1] * np.arange(p), p)
    return np.ascontiguousarray(powers[exps].transpose(0, 2, 1))


def monomial_values(tables: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """x^e mod p at every row x of `rows` (int64 residues, one variable per
    column) for every monomial of `power_tables`, as an array (rows, k).
    Each product is of two residues, exact for p < 2^31."""
    values = tables[0][rows[:, 0]]
    for table, column in zip(tables[1:], rows.T[1:]):
        values = _mod(values * table[column], p)
    return values
