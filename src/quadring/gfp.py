"""Arithmetic in prime fields F_p (p odd) and canonical enumeration of P^n(F_p).

Field elements are plain Python ints in 0..p-1 with explicit modular
reduction everywhere; there is no lazy reduction.  A projective point is a
tuple of field elements in canonical form: not all zero, and the leftmost
nonzero coordinate equal to 1.  The canonical points of P^n(F_p) carry a
fixed total order, generated only by :func:`projective_points_array`, and
every enumeration and zero scan in the package walks them in that order,
which makes results independent of how the index range is split up.

Zero scans walk P^n (n >= 2) as (P^(n-2) x F_p^2) followed by
({0}^(n-1) x P^1): a point with a nonzero prefix h = (x_0..x_(n-2)) is the
canonical h followed by any s = (x_(n-1), x_n), and the canonical order is
h in the order of P^(n-2), then s lexicographically; the points with h = 0
come last, in the order of P^1.  The prefix rows, the rows s of F_p^2 (the
pivot-0 rows of P^2 without their leading 1) and the P^1 tail are all read
from :func:`projective_points_array`, so the order still has one source.
The zero scan of forms on P^(N-1) (`quadform.common_zeros`) solves for the
last coordinate and walks this split of P^(N-2) only: the points (u, t) of
P^(N-1) with u in P^(N-2) come in the order of u, then t, before e_last.

Everything here is immutable and pure, hence safe to share across threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError

ProjPoint = tuple[int, ...]

# Most points of P^n(F_p) handled at once by one scan block.  The solved
# zero scan holds several arrays of one value or root per cell of a block
# (0.5 MB each as int64), and each numpy call still covers enough points to
# hide its fixed cost: on the seed-42 net, 2^17 cells raised the peak RSS of
# `count` at 3..23 from 37 to 41 MB, and 2^15 cells slowed the X scan at
# p = 53 by a tenth.
CHUNK_ROWS = 1 << 16

# Rows per chunk of the walks that do Python work at every point
# (`enumerate_projective`, the fiber walk): 2^10 rows raised the fiber
# layers' peak RSS at p = 41, 53 by 1 MB, with no gain in time.
WALK_ROWS = 1 << 8


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for an odd prime p with 3 <= p < 2**31."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int):
            raise ValueError(f"prime must be an int, got {type(self.p).__name__}")
        if self.p < 3 or self.p >= 2**31:
            raise ValueError(f"prime out of range [3, 2^31): {self.p}")
        if self.p % 2 == 0 or not _is_prime(self.p):
            raise ValueError(f"not an odd prime: {self.p}")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 is not invertible mod {self.p}")
        return pow(a, self.p - 2, self.p)


def legendre_character(a: int, field: PrimeField) -> int:
    """Quadratic character of a mod p: 0 for 0, 1 for squares, -1 otherwise.

    Computed by Euler's criterion a^((p-1)/2) mod p.
    """
    p = field.p
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def projective_size(n: int, p: int) -> int:
    """Number of points of P^n(F_p), i.e. (p^(n+1) - 1) / (p - 1); P^-1 is
    empty."""
    if n < -1:
        raise ValueError(f"negative dimension: {n}")
    return (p ** (n + 1) - 1) // (p - 1)


def canonical_point(coords: Sequence[int], field: PrimeField) -> ProjPoint:
    """Canonical representative of a projective point: leftmost nonzero is 1.

    Raises ValueError if all coordinates vanish mod p.
    """
    p = field.p
    reduced = [c % p for c in coords]
    for c in reduced:
        if c != 0:
            s = field.inv(c)
            return tuple(x * s % p for x in reduced)
    raise ValueError("zero vector does not define a projective point")


def size_within_budget(n: int, p: int, budget: int) -> int:
    """#P^n(F_p); the only check of the point budget: raises
    BudgetExceededError when the space has more than `budget` points."""
    size = projective_size(n, p)
    if size > budget:
        raise BudgetExceededError(
            f"the scan walks P^{n}(F_{p}), which has {size} points, over the budget of {budget}"
        )
    return size


def projective_points_array(
    n: int, field: PrimeField, budget: int = 4_000_000, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """Rows lo..hi-1 (default: all) of the canonical order of P^n(F_p), as
    an int64 array with one point per row.

    The order is: points grouped by pivot position j (the index of the
    leading 1) ascending, and inside a group the free coordinates
    x_{j+1}..x_n run lexicographically with x_{j+1} most significant.
    This is the only implementation of that order.  Raises
    BudgetExceededError when the space has more than `budget` points.
    """
    p = field.p
    size = size_within_budget(n, p, budget)
    hi = size if hi is None else hi
    if not 0 <= lo <= hi <= size:
        raise ValueError(f"bad index range [{lo}, {hi}) of {size} points")
    rows = np.zeros((hi - lo, n + 1), dtype=np.int64)
    start = 0  # index of the first point with pivot j
    for j in range(n + 1):
        count = p ** (n - j)
        a, b = max(lo, start), min(hi, start + count)
        if a < b:
            block = rows[a - lo : b - lo]
            block[:, j] = 1
            offsets = np.arange(a - start, b - start, dtype=np.int64)
            for t in range(j + 1, n + 1):
                block[:, t] = offsets // p ** (n - t) % p
        start += count
    return rows


def projective_row_chunks(n: int, field: PrimeField) -> Iterator[np.ndarray]:
    """The rows of P^n(F_p) in canonical order, read from
    :func:`projective_points_array` one index range of at most WALK_ROWS
    rows at a time."""
    size = projective_size(n, field.p)
    for lo in range(0, size, WALK_ROWS):
        yield projective_points_array(n, field, budget=size, lo=lo, hi=min(lo + WALK_ROWS, size))


def enumerate_projective(n: int, field: PrimeField) -> Iterator[ProjPoint]:
    """Yield every point of P^n(F_p) exactly once, in canonical order, as
    tuples, one chunk of :func:`projective_row_chunks` at a time."""
    for rows in projective_row_chunks(n, field):
        yield from map(tuple, rows.tolist())


def scan_projective(
    n: int,
    field: PrimeField,
    keep: Callable[[np.ndarray, np.ndarray], np.ndarray],
    budget: int = 4_000_000,
    jobs: int = 1,
) -> np.ndarray:
    """The rows `keep` finds on the points of P^n(F_p), in the canonical
    order of the points.

    The walk is the prefix x F_p^2 split of the module docstring.  keep(h, s)
    gets a block of prefix rows h and a block of rows s, at most CHUNK_ROWS
    pairs in all, and returns the rows it finds for the points (h_i, s_j)
    in the C order of (i, j).  Each of `jobs` threads walks one contiguous
    part of the prefix index range, so memory stays bounded at any budget
    and the result does not depend on `jobs`; there are never more parts,
    hence threads, than `os.cpu_count()`.  Raises BudgetExceededError when
    P^n(F_p) has more than `budget` points.
    """
    p = field.p
    size_within_budget(n, p, budget)

    def blocks(h: np.ndarray, s_dim: int, s_count: int, s_col: int) -> list[np.ndarray]:
        # keep() on h x the first s_count rows of P^s_dim, from column s_col on
        step = max(1, CHUNK_ROWS // len(h))
        return [
            keep(h, projective_points_array(s_dim, field, budget, b, min(b + step, s_count))[:, s_col:])
            for b in range(0, s_count, step)
        ]

    t = min(n, 1)
    tail = blocks(np.zeros((1, n - t), dtype=np.int64), t, projective_size(t, p), 0)
    if n < 2:
        return np.concatenate(tail)
    # the first p^2 rows of P^2 are (1, s) for s in F_p^2, lexicographically
    prefix_rows = max(1, CHUNK_ROWS // p**2)

    def scan(part: tuple[int, int]) -> list[np.ndarray]:
        lo, hi = part
        return [
            kept
            for a in range(lo, hi, prefix_rows)
            for kept in blocks(
                projective_points_array(n - 2, field, budget, a, min(a + prefix_rows, hi)),
                2, p**2, 1,
            )
        ]

    parts = split_ranges(projective_size(n - 2, p), min(jobs, os.cpu_count() or 1))
    if len(parts) == 1:
        heads = [scan(parts[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            heads = list(pool.map(scan, parts))
    return np.concatenate([kept for head in heads for kept in head] + tail)


def split_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Partition range(total) into at most `parts` contiguous index ranges.

    The partition is deterministic, and unions of per-range results agree
    with a single-range run for any associative commutative merge.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    parts = min(parts, total) if total > 0 else 1
    step = -(-total // parts)
    ranges = []
    lo = 0
    while lo < total:
        hi = min(lo + step, total)
        ranges.append((lo, hi))
        lo = hi
    return ranges or [(0, 0)]
