"""Small exact linear algebra helpers mod p (row reduction, kernels, dets).

The row routines take sequences of row sequences of ints and return plain
lists; pivoting is deterministic (first nonzero entry in scan order), so
every caller gets reproducible bases.  `kernel_stack` runs the same
elimination on a whole stack of int64 matrices at once, with its pivots'
inverses read through `gfp.lookup`.  Integers enter int64 arrays only
through `residues`, and `matmul_mod` multiplies such arrays exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gfp import PrimeField, inverse, lookup

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
        inv = inverse(mat[r][c], p)
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
        inv = inverse(mat[c][c], p)
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] * inv % p
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[c])]
    return det


def kernel_stack(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank and right kernel of every matrix of a stack (k, r, c) of int64
    residues mod p, by one Gauss-Jordan elimination of the whole stack with
    `row_reduce`'s rule: pivot on the first nonzero entry in scan order and
    scale the pivot row to 1.

    The kernels come as a stack (k, c, c): row f of a member is the vector
    `kernel_basis` gives for its free column f, with 1 in that column, and
    rows at pivot columns are zero.  So the nonzero rows, in order, are the
    member's `kernel_basis`.  Every product is of two residues, exact for
    p < 2^31.
    """
    a = np.array(mats, dtype=np.int64) % p
    count, nrows, ncols = a.shape
    rank = np.zeros(count, dtype=np.int64)
    # pivot[b, i, c] = 1 where row i of member b has its pivot in column c
    pivot = np.zeros_like(a)
    for c in range(ncols):
        nonzero = (a[:, :, c] != 0) & (np.arange(nrows) >= rank[:, None])
        hit = np.flatnonzero(nonzero.any(axis=1))
        if not hit.size:
            continue
        at, to = nonzero[hit].argmax(axis=1), rank[hit]
        top, swapped = a[hit, at], a[hit, to]
        a[hit, at] = swapped
        top = top * lookup(inverse, top[:, c], p)[:, None] % p
        sub = (a[hit] - a[hit, :, c, None] * top[:, None, :]) % p
        sub[np.arange(len(hit)), to] = top
        a[hit] = sub
        pivot[hit, to, c] = 1
        rank[hit] += 1
    # v_f = e_f - sum_i a[i, f] e_(pivot column of row i): one term per entry
    kernels = (np.eye(ncols, dtype=np.int64) - np.swapaxes(a, 1, 2) @ pivot) % p
    return rank, kernels * (pivot.sum(axis=1) == 0)[:, :, None]


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
