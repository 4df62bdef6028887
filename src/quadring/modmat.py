"""Small exact linear algebra helpers mod p (row reduction, kernels, dets).

The row routines take sequences of row sequences of ints and return plain
lists; pivoting is deterministic (first nonzero entry in scan order), so
every caller gets reproducible bases.  Integers enter int64 arrays only
through `residues`, and `matmul_mod` multiplies such arrays exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gfp import PrimeField

IntRows = Sequence[Sequence[int]]


def row_reduce(rows: IntRows, ncols: int, field: PrimeField) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p; returns (rref_rows, pivot_columns)."""
    p = field.p
    mat = [[int(x) % p for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank_mod(rows: IntRows, ncols: int, field: PrimeField) -> int:
    return len(row_reduce(rows, ncols, field)[1])


def kernel_basis(rows: IntRows, ncols: int, field: PrimeField) -> list[list[int]]:
    """Basis of the right kernel of the matrix, one vector per free column.

    Vectors are ordered by ascending free column; the free column carries 1.
    """
    p = field.p
    rref, pivots = row_reduce(rows, ncols, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = (-rref[r][free]) % p
        basis.append(v)
    return basis


def det_mod(rows: IntRows, field: PrimeField) -> int:
    """Determinant mod p of a square matrix, by Gaussian elimination."""
    p = field.p
    n = len(rows)
    mat = [[int(x) % p for x in row] for row in rows]
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det % p
        det = det * mat[c][c] % p
        inv = pow(mat[c][c], p - 2, p)
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] * inv % p
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[c])]
    return det


def matvec(rows: IntRows, v: Sequence[int], field: PrimeField) -> list[int]:
    p = field.p
    return [sum(a * b for a, b in zip(row, v)) % p for row in rows]


def residues(values, field: PrimeField) -> np.ndarray:
    """Nested integers reduced mod p as Python ints, so an entry of any
    size is exact, then stored as an int64 array of the same shape."""
    return (np.array(values, dtype=object) % field.p).astype(np.int64)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p (numpy matmul) for int64 arrays with entries in [0, p).
    The plain product is exact while t (p - 1)^2 < 2^63 for the inner
    dimension t; past that, b = b_hi * 2^16 + b_lo keeps each product below
    2^47 and each sum below 2^63 for t < 2^15, up to p = 2^31."""
    if a.shape[-1] * (p - 1) ** 2 < 2**63:
        return a @ b % p
    out = a @ (b >> 16)
    out %= p
    out <<= 16
    out += a @ (b & 0xFFFF)
    out %= p
    return out
