"""Small exact linear algebra helpers mod p (row reduction, kernels, dets).

`row_reduce` is the one Gauss-Jordan elimination: it reduces a whole stack
of int64 matrices of residues at once, pivoting deterministically on the
first nonzero entry in scan order, so every caller gets reproducible bases,
and it reads its pivots' inverses through `gfp.lookup`.  `kernel_stack`,
`rank_mod` and `kernel_basis` are reads of it, the last two of a stack of
one.  `det_mod` is a determinant on plain lists; no library path calls it
or `rank_mod`.  Integers enter int64 arrays only through `residues`, `_mod`
reduces int64 arrays, and `matmul_mod` multiplies such arrays exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gfp import PrimeField, inverse, lookup


def row_reduce(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix of a stack (k, r, c) of int64
    residues mod p, by one Gauss-Jordan elimination of the whole stack:
    pivot on the first nonzero entry in scan order and scale the pivot row
    to 1.  Returns the ranks (k,), the reduced stack (k, r, c), whose first
    rank rows are the nonzero rows, and the one-hot pivot stack (k, r, c),
    1 where row i of a member has its pivot in column c.  Every product is
    of two residues, exact for p < 2^31.
    """
    a = np.array(mats, dtype=np.int64) % p
    count, nrows, ncols = a.shape
    rank = np.zeros(count, dtype=np.int64)
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
    return rank, a, pivot


def kernel_stack(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank and right kernel of every matrix of a stack (k, r, c) of int64
    residues mod p, read from `row_reduce`.

    The kernels come as a stack (k, c, c): row f of a member is the kernel
    vector of its free column f, with 1 in that column, and rows at pivot
    columns are zero.  So the nonzero rows, in order, are the member's
    `kernel_basis`.
    """
    rank, a, pivot = row_reduce(mats, p)
    # v_f = e_f - sum_i a[i, f] e_(pivot column of row i): one term per entry
    kernels = (np.eye(a.shape[2], dtype=np.int64) - np.swapaxes(a, 1, 2) @ pivot) % p
    return rank, kernels * (pivot.sum(axis=1) == 0)[:, :, None]


def rank_mod(rows: np.ndarray, ncols: int, field: PrimeField) -> int:
    """Rank mod p of one int64 matrix of residues with `ncols` columns."""
    return int(row_reduce(np.reshape(rows, (1, -1, ncols)), field.p)[0][0])


def kernel_basis(rows: np.ndarray, ncols: int, field: PrimeField) -> np.ndarray:
    """Basis of the right kernel of one int64 matrix of residues with
    `ncols` columns, one row per free column, in ascending order; the free
    column carries 1."""
    kernel = kernel_stack(np.reshape(rows, (1, -1, ncols)), field.p)[1][0]
    return kernel[kernel.any(axis=1)]


def det_mod(rows: Sequence[Sequence[int]], field: PrimeField) -> int:
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


def residues(values, field: PrimeField) -> np.ndarray:
    """Nested integers reduced mod p as Python ints, so an entry of any
    size is exact, then stored as an int64 array of the same shape."""
    return (np.array(values, dtype=object) % field.p).astype(np.int64)


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for an int64 array, as x - (x // p) p: numpy divides by a
    scalar about twice as fast as it takes the remainder."""
    q = x // p
    q *= p
    return np.subtract(x, q, out=q)


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
