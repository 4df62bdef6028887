"""Arithmetic in prime fields F_p (p odd) and canonical enumeration of P^n(F_p).

Field elements are plain Python ints in 0..p-1 with explicit modular
reduction everywhere; there is no lazy reduction.  A projective point is a
tuple of field elements in canonical form: not all zero, and the leftmost
nonzero coordinate equal to 1.  The canonical points of P^n(F_p) carry a
fixed total order, generated only by :func:`projective_points_array`, and
every enumeration and zero scan in the package walks them in that order,
which makes results independent of how the index range is split up.

Everything here is immutable and pure, hence safe to share across threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError

ProjPoint = tuple[int, ...]

# Most rows of P^n(F_p) generated at once by one scan or enumeration: 2^18
# rows of P^5 take 12.6 MB as int64, and each numpy call on a chunk still
# covers enough rows to hide its fixed cost.
CHUNK_ROWS = 1 << 18


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
    """Number of points of P^n(F_p), i.e. (p^(n+1) - 1) / (p - 1)."""
    if n < 0:
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


def projective_points_array(
    n: int, field: PrimeField, budget: int = 4_000_000, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """Rows lo..hi-1 (default: all) of the canonical order of P^n(F_p), as
    an int64 array with one point per row.

    The order is: points grouped by pivot position j (the index of the
    leading 1) ascending, and inside a group the free coordinates
    x_{j+1}..x_n run lexicographically with x_{j+1} most significant.
    This is the only implementation of that order and the only check of
    the point budget: raises BudgetExceededError when the space has more
    than `budget` points.
    """
    p = field.p
    size = projective_size(n, p)
    if size > budget:
        raise BudgetExceededError(
            f"P^{n}(F_{p}) has {size} points, over the budget of {budget}"
        )
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


def enumerate_projective(n: int, field: PrimeField) -> Iterator[ProjPoint]:
    """Yield every point of P^n(F_p) exactly once, in canonical order, as
    tuples read from :func:`projective_points_array` one index range of at
    most CHUNK_ROWS rows at a time."""
    size = projective_size(n, field.p)
    for lo in range(0, size, CHUNK_ROWS):
        rows = projective_points_array(n, field, budget=size, lo=lo, hi=min(lo + CHUNK_ROWS, size))
        yield from map(tuple, rows.tolist())


def projective_rows_where(
    n: int,
    field: PrimeField,
    keep: Callable[[np.ndarray], np.ndarray],
    budget: int = 4_000_000,
    jobs: int = 1,
) -> np.ndarray:
    """The rows of P^n(F_p), in canonical order, where the boolean mask
    keep(rows) is true.

    Each of `jobs` threads scans one contiguous part of the index range,
    generating and filtering it CHUNK_ROWS rows at a time, so memory stays
    bounded at any budget and the result does not depend on `jobs`.
    """

    def scan(part: tuple[int, int]) -> np.ndarray:
        lo, hi = part
        chunks = (
            projective_points_array(n, field, budget, a, min(a + CHUNK_ROWS, hi))
            for a in range(lo, hi, CHUNK_ROWS)
        )
        return np.concatenate([rows[keep(rows)] for rows in chunks])

    parts = split_ranges(projective_size(n, field.p), max(1, jobs))
    if len(parts) == 1:
        return scan(parts[0])
    with ThreadPoolExecutor(max_workers=len(parts)) as pool:
        return np.concatenate(list(pool.map(scan, parts)))


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
